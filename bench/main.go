// Command bench is the repository's end-to-end benchmark. It runs one
// named workload from a seed for a fixed number of seconds, checks that
// every byte arrives bit-exact, and prints every metric by name with
// its unit; the last line of standard output is the result as JSON.
//
//	bash bench/run.sh --workload bulk --seed 1 --seconds 30 --trace 0
//
// Untraced runs (--trace 0) measure the program as users run it and
// report the end-to-end metrics. Traced runs (--trace 1) measure one
// untraced pass and then a traced pass of the same workload — spans
// around every call into session, transport and control, recorded by
// this package from outside the program — and report the per-layer
// metrics. BENCHMARK.json at the repository root lists the metrics,
// workloads and bounds.
//
// All traffic crosses the host loopback interface or the in-memory
// hub, never a real link.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/udpmcast"
)

type workload struct {
	run func(*run) error
	// headline is the end-to-end metric trace.overhead_frac compares
	// between the untraced and the traced pass.
	headline string
}

var workloads = map[string]workload{
	"bulk":      {runBulk, "goodput_MBps"},
	"lossy-mux": {runLossyMux, "goodput_MBps"},
	"churn":     {runChurn, "xfer_p50_s"},
}

// metric is one named result.
type metric struct {
	name  string
	value float64
	unit  string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: bulk, lossy-mux or churn")
	seed := flag.Int64("seed", 1, "seed all inputs derive from")
	seconds := flag.Int("seconds", 30, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload bulk|lossy-mux|churn, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	printEnv(*name, *seed)
	length := time.Duration(*seconds) * time.Second

	plain := newRun(*seed, length, nil)
	if err := w.run(plain); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	e2e := endToEnd(plain)
	final := plain
	var metrics []metric
	if *traced == 1 {
		tc := newTracer()
		tr := newRun(*seed, length, tc)
		if err := w.run(tr); err != nil {
			fmt.Fprintf(os.Stderr, "bench: traced pass: %v\n", err)
			os.Exit(1)
		}
		metrics = perLayer(tr)
		metrics = append(metrics,
			metric{"cpu_s_per_GB", plain.cpuPerGB(), "s/GB"},
			overhead(w.headline, e2e, endToEnd(tr)))
		metrics = append(metrics,
			metric{"trace.spans", float64(len(tc.kept())), "count"},
			metric{"trace.spans_dropped", float64(tc.dropped.Load()), "count"})
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.tsv", *name, *seed))
		if err := tc.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing spans: %v\n", err)
		} else {
			fmt.Printf("# spans written to %s\n", path)
		}
		final = tr
	} else {
		metrics = e2e
		// Measured but unbounded: host load moves it more than any bound
		// allows (see NOTES.md).
		fmt.Printf("# info: cpu_s_per_GB=%.6g s/GB\n", plain.cpuPerGB())
	}
	report(plain, final, metrics)
}

// report prints the correctness checks, every metric as a line, and
// the JSON result last. Both passes of a traced run must be correct.
func report(plain, final *run, metrics []metric) {
	fmt.Printf("# checks: packet.pool_outstanding=%d udpmcast.truncated=%d udpmcast.send_errors=%d\n",
		final.out.poolLeft,
		final.stop.io.TruncatedDatagrams-final.start.io.TruncatedDatagrams,
		final.stop.io.SendErrors-final.start.io.SendErrors)
	res := result{
		Correct:   true,
		Attempted: final.out.attempted,
		Failed:    final.out.failed,
		Metrics:   make(map[string]jsonMetric, len(metrics)),
	}
	for _, r := range []*run{plain, final} {
		for _, c := range r.out.corrupt {
			fmt.Fprintf(os.Stderr, "bench: DELIVERY CHECK FAILED: %s\n", c)
			res.Correct = false
		}
		if r.out.attempted == 0 {
			fmt.Fprintf(os.Stderr, "bench: no operation was attempted\n")
			res.Correct = false
		}
	}
	for _, m := range metrics {
		fmt.Printf("%-36s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// printEnv records the environment the numbers were taken in.
func printEnv(name string, seed int64) {
	gso, gro := udpmcast.ProbeOffload()
	igmp := "unknown"
	if b, err := os.ReadFile("/proc/sys/net/ipv4/igmp_max_memberships"); err == nil {
		igmp = strings.TrimSpace(string(b))
	}
	fmt.Printf("# env: workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s kernel=%s offload_gso=%v offload_gro=%v igmp_max_memberships=%s path=\"loopback/hub, no real link\"\n",
		name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease(), gso, gro, igmp)
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}
