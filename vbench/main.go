// Command vbench is the repository's end-to-end benchmark: it runs one
// workload against a real in-process peering.Platform, driving it only
// through public calls (the peering Platform, PoP and Client, bench-owned
// neighbor sessions on core.Router.AddNeighbor, and the ctlplane HTTP
// API on loopback), checks every result against a plain model, and
// prints each metric with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload fib-forwarding --seed 1 --seconds 10 --trace 0
//
// --trace 1 runs the workload traced and reports the per-layer metrics
// instead of the end-to-end ones; see NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/policy"
)

// options configure one invocation. main sets the benchmark's own
// values; the self-test shrinks them.
type options struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	platforms int           // platforms per untraced run; 0 keeps the workload's
	prefixes  int           // table prefixes per neighbor; 0 keeps the workload's
	side      int           // fewest samples of a side-phase latency
	sideFor   time.Duration // shortest side-phase block
	drop      int           // bench neighbor 0 ignores its drop-th UPDATE (self-test)
	workDir   string        // control-plane state and trace output
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured main phase")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	wl := workloadByName(*name)
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "vbench: want --workload one of %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	opts := options{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		side: sideSamples, sideFor: sideFor,
		workDir: filepath.Join(".bench_build", "vbench", fmt.Sprintf("%s-%d-%d", wl.name, *seed, os.Getpid())),
	}
	res, err := execute(wl, opts, os.Stdout)
	_ = os.RemoveAll(filepath.Join(opts.workDir, "state"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "vbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// execute runs the workload. It sets the workload's platforms up one after
// the other and measures each for an equal share of the main and side
// phases, so one run averages over several platform instances; a traced
// run sets up and measures one. setup_s is the median of those set-ups
// and, on platforms that set up quickly, of further ones until a
// side-phase block of set-up time has passed. Human-readable lines go to
// out.
func execute(wl *workload, opts options, out io.Writer) (*result, error) {
	prefixes := wl.prefixes
	if opts.prefixes > 0 {
		prefixes = opts.prefixes
	}
	begin := time.Now()
	in := genInputs(opts.seed, prefixes, wl.exps)
	shares := wl.platforms
	if opts.platforms > 0 {
		shares = opts.platforms
	}
	if opts.trace {
		shares = 1
	}
	r := &run{in: in, primaryKind: wl.primary, shares: shares,
		side: max(opts.side/shares, 1), sideFor: opts.sideFor / time.Duration(shares),
		stateRoot: filepath.Join(opts.workDir, "state")}

	var setup samples
	var cpu, mainTime, sideTime time.Duration
	var mainOps uint64
	var lay *layerProbe
	var paths int
	var bytesPerPath float64
	heapBefore := liveHeap()
	for k := 0; k < shares; k++ {
		tb, err := r.setUp(wl, opts.drop, &setup)
		if err != nil {
			return nil, err
		}
		r.tb = tb
		if k == 0 {
			paths = tb.pop.Router.RouteCount() + len(tb.clients)*numNeighbors*len(in.prefixes)
			bytesPerPath = float64(int64(liveHeap())-int64(heapBefore)) / float64(paths)
		}
		if opts.trace {
			r.tr = newTracer()
			lay = newLayerProbe(r)
		}
		sh := r.measure(wl, opts.seconds/time.Duration(shares), k == shares-1, lay)
		cpu, mainOps, mainTime, sideTime = cpu+sh.cpu, mainOps+sh.ops, mainTime+sh.main, sideTime+sh.side
		if !opts.trace {
			tb.close()
		}
	}
	if opts.trace {
		defer r.tb.close() // kept for the replays
	} else {
		for setup.mean()*float64(setup.n()) < opts.sideFor.Seconds() {
			tb, err := r.setUp(wl, opts.drop, &setup)
			if err != nil {
				return nil, err
			}
			tb.close()
		}
	}

	res := &result{Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]metric{}}
	valid := r.validate()
	res.Correct = res.Failed == 0 && valid

	fmt.Fprintf(out, "workload %s: %s\n", wl.name, wl.why)
	fmt.Fprintf(out, "footprint: %d neighbors x %d prefixes, %d paths held (router + experiments), %d toolkit experiment(s)%s\n",
		numNeighbors, len(in.prefixes), paths, wl.exps, map[bool]string{true: " + API experiments", false: ""}[wl.api])
	fmt.Fprintf(out, "host: nproc %d, GOMAXPROCS %d, %s; seed %d; main phase %v over %d platform(s); %d set-ups\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), opts.seed, opts.seconds, shares, setup.n())
	fmt.Fprintf(out, "inbound_ms resolution: RoutesFor polled back to back, %.1f µs per poll (median)\n", r.pollGap.median())
	fmt.Fprintf(out, "phases: %.1fs in all, set-ups %.1fs, main %.1fs, side %.1fs\n", time.Since(begin).Seconds(),
		setup.mean()*float64(setup.n()), mainTime.Seconds(), sideTime.Seconds())

	if opts.trace {
		for name, v := range lay.metrics(r, opts) {
			res.Metrics[name] = v
		}
		if path, err := r.tr.write(filepath.Join(opts.workDir, "traces"), "spans.jsonl"); err == nil {
			fmt.Fprintf(out, "spans: %s\n", path)
		}
	} else {
		e2e := map[string]metric{
			"setup_s":              {setup.median(), "s"},
			"outbound_ms.p50":      {r.outbound.quantile(0.5), "ms"},
			"outbound_ms.p90":      {r.outbound.quantile(0.9), "ms"},
			"inbound_ms.p50":       {r.inbound.quantile(0.5), "ms"},
			"inbound_ms.p90":       {r.inbound.quantile(0.9), "ms"},
			"refresh_routes_per_s": {r.refreshRate.median(), "routes/s"},
			"rtt_best_us.p50":      {r.rttBest.quantile(0.5), "us"},
			"rtt_best_us.p90":      {r.rttBest.quantile(0.9), "us"},
			"rtt_via_us.p50":       {r.rttVia.quantile(0.5), "us"},
			"rtt_via_us.p90":       {r.rttVia.quantile(0.9), "us"},
			"forward_pps":          {r.forwardPPS.median(), "packets/s"},
			"api_ms.p50":           {r.api.quantile(0.5), "ms"},
			"api_ms.p90":           {r.api.quantile(0.9), "ms"},
			"cpu_us_per_op":        {float64(cpu.Microseconds()) / float64(max(mainOps, 1)), "us"},
			"bytes_per_path":       {bytesPerPath, "B"},
		}
		res.Metrics = e2e
	}
	counts := map[string]int{
		"outbound_ms": r.outbound.n(), "inbound_ms": r.inbound.n(), "rtt_best_us": r.rttBest.n(),
		"rtt_via_us": r.rttVia.n(), "api_ms": r.api.n(),
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		note := ""
		if n, ok := counts[strings.SplitN(name, ".", 2)[0]]; ok {
			note = fmt.Sprintf("  (%d samples)", n)
		}
		fmt.Fprintf(out, "%-36s %14.4f %s%s\n", name, m.Value, m.Unit, note)
	}
	fmt.Fprintf(out, "failed_ratio %.6f (%d of %d operations failed)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, f := range r.failures {
		fmt.Fprintf(out, "failure: %s\n", f)
	}
	return res, nil
}

// setUp brings one platform up, the control plane included where the
// workload's main load uses it, and records the set-up time.
func (r *run) setUp(wl *workload, drop int, setup *samples) (*testbed, error) {
	start := time.Now()
	tb, err := newTestbed(r.in, drop)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if wl.api {
		if tb.cp, err = startControlPlane(tb.p, r.stateDir("setup")); err != nil {
			tb.close()
			return nil, fmt.Errorf("set-up: control plane: %w", err)
		}
	}
	setup.addDur(time.Since(start), time.Second)
	return tb, nil
}

// share is what one platform's share of the measured phase took: the
// process CPU time and the operations completed during the main phase
// (settles left out), and the wall time of the main and side phases.
type share struct {
	cpu        time.Duration
	ops        uint64
	main, side time.Duration
}

// measure runs one share of the measured phase on r.tb: main load for
// d, then the side phase, then the end-of-share checks. A non-nil lay
// takes the per-layer view of the share.
func (r *run) measure(wl *workload, d time.Duration, last bool, lay *layerProbe) (sh share) {
	for _, c := range r.tb.clients {
		checked, bad := r.tb.checkInbound(c)
		r.check(bad == 0, "%s: %d of %d prefixes lack correct ADD-PATH paths", c.Name, bad, checked)
	}
	r.model = model{}
	if wl.api {
		r.startResident()
	}
	r.settle()
	before := snapCounters()
	if lay != nil {
		lay.start(r)
	}
	cpu0, settled0, ops0, start := cpuTime(), r.settleCPU, r.ops.Load(), time.Now()
	if r.tr != nil {
		wl.main(r, d/2)
		r.tr.on = true
		wl.main(r, d-d/2)
	} else {
		wl.main(r, d)
	}
	sh.main = time.Since(start)
	sh.cpu = cpuTime() - cpu0 - (r.settleCPU - settled0)
	sh.ops = r.ops.Load() - ops0
	wl.side(r, last)
	if r.resident != nil {
		r.retireResident()
	}
	sh.side = time.Since(start) - sh.main
	if lay != nil {
		lay.finish(r)
	}

	r.checkNeighbors()
	if rejected := rejections(before, snapCounters()); !r.check(rejected == 0, "policy rejected %d announcements or withdrawals", rejected) {
		for _, e := range r.tb.p.Engine.Audit() {
			if e.Action == policy.ActionReject {
				logf("policy: %s", e)
			}
		}
	}
	// Stop the control plane before the replays.
	if r.tb.cp != nil {
		r.tb.cp.close()
		r.tb.cp = nil
	}
	return sh
}

// minSamples is the fewest samples a latency percentile may rest on.
const minSamples = 100

// validate reports whether every latency metric has enough samples.
func (r *run) validate() bool {
	ok := true
	for name, s := range map[string]*samples{
		"outbound_ms": &r.outbound, "inbound_ms": &r.inbound, "rtt_best_us": &r.rttBest,
		"rtt_via_us": &r.rttVia, "api_ms": &r.api,
	} {
		if n := s.n(); n < min(minSamples, r.side*r.shares) {
			logf("%s has %d samples, fewer than %d", name, n, min(minSamples, r.side*r.shares))
			ok = false
		}
	}
	return ok
}
