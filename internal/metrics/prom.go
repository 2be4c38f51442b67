package metrics

import (
	"fmt"
	"io"
	"strconv"

	"facsp/internal/traffic"
)

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Families lists every Prometheus metric family the repository exposes, in
// exposition order: the per-cell families of WriteProm, then the
// registered process-wide scalars as of the call. The docs drift gate
// checks EXPERIMENTS.md documents each one.
func Families() []string {
	out := []string{
		"facs_admits_total",
		"facs_blocks_total",
		"facs_drops_total",
		"facs_shed_total",
		"facs_occupancy_bu",
		"facs_capacity_bu",
		"facs_degraded_conns",
	}
	for _, s := range registeredScalars() {
		out = append(out, s.name)
	}
	return out
}

// classFamily is one class-partitioned counter family: a base column for
// traffic.Text with Voice and Video at the two following columns.
type classFamily struct {
	name string
	help string
	base Counter
}

var classFamilies = []classFamily{
	{"facs_admits_total", "Accepted admissions (new calls and handoffs) by cell and class.", AdmitsText},
	{"facs_blocks_total", "Denied new-call admissions by cell and class.", BlocksText},
	{"facs_drops_total", "Denied handoff admissions (dropped on-going connections) by cell and class.", DropsText},
}

// gaugeFamily is one per-cell gauge family.
type gaugeFamily struct {
	name string
	help string
	g    Gauge
}

var gaugeFamilies = []gaugeFamily{
	{"facs_occupancy_bu", "Cell occupancy in bandwidth units after the most recent operation.", OccupancyBU},
	{"facs_capacity_bu", "Cell capacity in bandwidth units.", CapacityBU},
	{"facs_degraded_conns", "On-going connections currently served below their requested bandwidth.", DegradedConns},
}

func header(w io.Writer, name, help, kind string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	return err
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteProm renders a snapshot's per-cell counters and gauges in the
// Prometheus text exposition format (version 0.0.4), families in stable
// order and cells in slot order.
func WriteProm(w io.Writer, s *Snapshot) error {
	for _, f := range classFamilies {
		if err := header(w, f.name, f.help, "counter"); err != nil {
			return err
		}
		for cell := 0; cell < s.cells; cell++ {
			for _, cl := range traffic.Classes() {
				v := s.Counter(cell, f.base+Counter(cl-traffic.Text))
				if _, err := fmt.Fprintf(w, "%s{cell=%q,class=%q} %d\n", f.name, strconv.Itoa(cell), cl.String(), v); err != nil {
					return err
				}
			}
		}
	}
	if err := header(w, "facs_shed_total", "Requests shed by the cell's bounded queue (wire code \"overloaded\").", "counter"); err != nil {
		return err
	}
	for cell := 0; cell < s.cells; cell++ {
		if _, err := fmt.Fprintf(w, "facs_shed_total{cell=%q} %d\n", strconv.Itoa(cell), s.Counter(cell, CtrShed)); err != nil {
			return err
		}
	}
	for _, f := range gaugeFamilies {
		if err := header(w, f.name, f.help, "gauge"); err != nil {
			return err
		}
		for cell := 0; cell < s.cells; cell++ {
			if _, err := fmt.Fprintf(w, "%s{cell=%q} %s\n", f.name, strconv.Itoa(cell), formatFloat(s.Gauge(cell, f.g))); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteScalars renders every process-wide counter family registered with
// RegisterScalar, sorted by family name.
func WriteScalars(w io.Writer) error {
	for _, s := range registeredScalars() {
		if err := header(w, s.name, s.help, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", s.name, s.fn()); err != nil {
			return err
		}
	}
	return nil
}
