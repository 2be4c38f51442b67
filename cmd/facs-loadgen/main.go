// Command facs-loadgen drives a facs-server daemon with an open-loop
// call workload and reports sustained admissions/sec plus p50/p99
// admission latency.
//
// Unlike a closed-loop driver (whose next request waits for the previous
// response), facs-loadgen schedules every arrival in advance from a scenario-library rate profile — the flash-crowd 8x
// spike or the diurnal city curve, time-scaled to -duration — so an
// overloaded daemon keeps receiving the full offered load and its
// shedding behaviour and tail latency become visible. Latency is
// measured from each request's scheduled send time (coordinated-omission
// corrected).
//
// Usage:
//
//	facs-loadgen -addr 127.0.0.1:4077 -profile flash-crowd -duration 10s -rate 2000
//	facs-loadgen -profile diurnal -cells 7 -minbu-frac 0.5   # exercise degraded admissions
//
// The exit status is non-zero if any request failed at the transport or
// protocol level (shed "overloaded" responses are expected under
// overload and are reported separately, not counted as errors).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"facsp/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "facs-loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("facs-loadgen", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:4077", "daemon address")
		profile   = fs.String("profile", "flash-crowd", "load shape: "+strings.Join(loadgen.Profiles(), ", "))
		duration  = fs.Duration("duration", 10*time.Second, "arrival window the profile is scaled to")
		rate      = fs.Float64("rate", 500, "peak arrival rate in requests/second")
		conns     = fs.Int("conns", 4, "concurrent client sessions")
		cells     = fs.Int("cells", 1, "spread arrivals over daemon cells [0,cells)")
		seed      = fs.Uint64("seed", 1, "workload seed")
		hold      = fs.Duration("hold", 2*time.Second, "mean holding time of accepted calls")
		minBUFrac = fs.Float64("minbu-frac", 0, "fraction of voice/video admits carrying a degraded min_bu floor")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	res, err := loadgen.Run(loadgen.Config{
		Addr:      *addr,
		Profile:   *profile,
		Duration:  *duration,
		Rate:      *rate,
		Conns:     *conns,
		Cells:     *cells,
		Seed:      *seed,
		HoldMean:  *hold,
		MinBUFrac: *minBUFrac,
	})
	if err != nil {
		return err
	}
	fmt.Println(res)
	if res.Errors > 0 {
		return fmt.Errorf("%d request(s) failed", res.Errors)
	}
	return nil
}
