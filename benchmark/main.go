// Command benchmark measures the admission daemon (internal/bsd behind
// facs-server) and the simulator (internal/experiment and internal/cellsim
// behind facs-sim) end to end, and, in a traced run, layer by layer.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload serve-surface --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 1          # every workload, each in its own process
//	bash benchmark/run.sh --seed 1 --trace 1 --trace-dir .bench_build/trace
//
// A run prints its report, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics. It exits non-zero when an
// operation fails or an output check does not hold. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of a workload reports.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	table             *layerTable
	spans             []span
	notes             []string // human-readable lines printed before the JSON
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// measure runs the timed region for about d, untraced.
	measure(d time.Duration) (*result, error)
	// trace runs an untraced and a traced pass for about d together and
	// reports the per-layer metrics and the layer table.
	trace(d time.Duration) (*result, error)
	close() error
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	setup func(seed uint64, traced bool) (instance, error)
}

var workloads = []workload{
	{"serve-surface", func(seed uint64, traced bool) (instance, error) { return newServe(serveSurface, seed, traced) }},
	{"serve-exact-hot", func(seed uint64, traced bool) (instance, error) { return newServe(serveExactHot, seed, traced) }},
	{"sim-paper", func(seed uint64, traced bool) (instance, error) { return newSimPaper(seed) }},
	{"sim-city", func(seed uint64, traced bool) (instance, error) { return newSimCity(seed) }},
}

// setupRuns is how many fresh processes set a workload up for setup_s.
const setupRuns = 5

// warmUpFor is how long a workload runs untimed before a pass of length d,
// so that caches fill and the heap reaches its working size first.
func warmUpFor(d time.Duration) time.Duration { return min(2*time.Second, d/4) }

func main() {
	name := flag.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 20, "length of the timed region in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "directory the traced run writes <workload>.spans.jsonl to")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print ready and exit (used to time set-up in a fresh process)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: need --seconds >= 1, --trace 0 or 1 and no positional arguments")
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace, *traceDir))
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(names(), ", "))
		os.Exit(2)
	}
	if *setupOnly {
		inst, err := w.setup(*seed, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println("ready")
		if err := inst.close(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(runOne(os.Stdout, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir))
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func names() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runOne runs one workload in this process and prints its report and JSON
// line to out. It returns the exit code.
func runOne(out io.Writer, w workload, seed uint64, d time.Duration, traced bool, traceDir string) int {
	var setupS float64
	if !traced {
		var err error
		if setupS, err = timeSetup(w.name, seed); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	inst, err := w.setup(seed, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var res *result
	if traced {
		res, err = inst.trace(d)
	} else {
		res, err = inst.measure(d)
	}
	if cerr := inst.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if traced {
		if res.table != nil {
			res.table.print(out)
		}
		path, err := writeSpans(traceDir, w.name, res.spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(res.spans), path)
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		res.metrics["setup_s"] = metric{setupS, "s"}
		res.metrics["peak_rss_mb"] = metric{rss, "MB"}
	}
	for _, n := range res.notes {
		fmt.Fprintln(out, n)
	}
	keys := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "%-24s %14.4f %s\n", k, res.metrics[k].Value, res.metrics[k].Unit)
	}
	for _, p := range res.problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if len(res.problems) > 0 || res.failed > 0 {
		return 1
	}
	return 0
}

// timeSetup starts setupRuns fresh processes that only set the workload up
// and returns the median time from start to ready: it covers process start,
// package initialisation and everything before the timed region, none of it
// served from a warm cache of an earlier set-up.
func timeSetup(name string, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		elapsed := time.Since(start)
		_, _ = io.Copy(io.Discard, stdout)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up process: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return 0, fmt.Errorf("set-up process printed %q", line)
		}
		times = append(times, elapsed.Seconds())
	}
	sort.Float64s(times)
	return times[len(times)/2], nil
}

// peakRSSMB is this process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runAll runs every workload in its own child process, forwarding each
// one's report. It returns the exit code.
func runAll(seed uint64, seconds, trace int, traceDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--trace-dir", traceDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
