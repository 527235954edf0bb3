package main

import (
	"runtime"
	"sync"
	"time"

	"repro/peering"
)

// workload is one traffic mix. Its main phase is the load the workload
// exists for; the side phase then takes a fixed, small sample of every
// end-to-end metric the main phase does not produce, so each run reports
// all of them.
type workload struct {
	name, why string
	// Footprint: table prefixes per neighbor and toolkit experiments.
	prefixes, exps int
	// platforms are set up and measured one after the other per run, each
	// for an equal share of every phase: a platform instance's memory
	// layout moves its figures, and several instances average that out.
	// Small platforms set up quickly, so they take more.
	platforms int
	// api puts the control plane in the set-up and a resident API
	// experiment before the main phase: its lifecycles are part of the
	// main load.
	api     bool
	primary primaryKind
	main    func(r *run, d time.Duration)
	// side runs after each platform's main share; last marks the run's
	// last platform.
	side func(r *run, last bool)
}

const (
	// sideSamples is the fewest samples of a side-phase latency: p90 then
	// has 12 samples beyond it. Each side block also runs for at least
	// sideFor, so cheap operations take many more.
	sideSamples = 120
	sideFor     = 2 * time.Second
	// bigRefreshes full-table refreshes of a large table per platform.
	bigRefreshes = 2
	// apiLifecycles on the resident API experiment, three steps each.
	apiLifecycles = sideSamples / 3
	// burstPackets is one SendIP burst; the run sends burstRounds of them,
	// spread over its platforms, and reports the median rate.
	burstPackets = 50000
	burstRounds  = 9
)

var workloads = []workload{
	{
		name:     "fib-forwarding",
		why:      "the read path at 256k paths: MAC dispatch, FIB, BPF anti-spoof, tunnel and client egress selection; via vs best separates the experiment-side lookup from the router's",
		prefixes: 65536, exps: 1, platforms: 3, primary: primaryRTTBest,
		main: fibMain,
		side: func(r *run, last bool) {
			r.sideOutbound()
			r.sideInbound()
			r.refreshes()
			if last {
				r.sideResidentAPI(apiLifecycles)
			}
		},
	},
	{
		name:     "experiment-control",
		why:      "the outbound and API path on small tables: policy, community-steered export, ctlplane WAL, reconciler and actuator, tunnel and session set-up",
		prefixes: 1024, exps: 6, platforms: 9, api: true, primary: primaryOutbound,
		main: controlMain,
		side: func(r *run, _ bool) {
			r.sidePings(false)
			r.sidePings(true)
			r.sideInbound()
			r.refreshes()
			r.bursts()
		},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// fibMain is one closed-loop goroutine alternating pings via the best
// route and via a seeded neighbor to seeded in-table destinations, then
// the SendIP bursts.
func fibMain(r *run, d time.Duration) {
	c := r.tb.clients[0]
	end := time.Now().Add(d)
	for i := 0; time.Now().Before(end); i++ {
		k := (i / 2) % len(r.in.pingDst)
		if i%2 == 0 {
			r.ping(c, -1, r.in.pingDst[k])
		} else {
			r.ping(c, r.in.pingVia[k], r.in.pingDst[k])
		}
	}
	r.bursts()
}

// controlMain round-robins the six toolkit clients through closed-loop
// announce, re-steer and withdraw operations on one goroutine while the
// other runs PATCH lifecycles on the resident API experiment.
func controlMain(r *run, d time.Duration) {
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	if r.resident != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := newRand(r.in.seed, 200)
			for time.Now().Before(end) {
				r.residentLifecycle(r.tb.cp, r.resident, rng)
			}
		}()
	}
	gens := make([]*opGen, len(r.tb.clients))
	for i, c := range r.tb.clients {
		gens[i] = newOpGen(r.in.seed, int64(100+i), r.in.exps[i], c)
	}
	for i := 0; time.Now().Before(end); i++ {
		if !r.outboundOp(gens[i%len(gens)]) {
			break
		}
	}
	wg.Wait()
}

// settle lets the work the previous phase left behind finish before a
// short measurement, so it does not land inside the measurement in some
// runs and not in others: it waits until no UPDATE moves and no snapshot
// is rebuilt for a while, then collects garbage. The CPU it takes is
// kept apart, so cpu_us_per_op leaves it out.
func (r *run) settle() {
	c := cpuTime()
	quiesce()
	runtime.GC()
	r.settleCPU += cpuTime() - c
}

// quiesce waits, at most establishTimeout, until the process's BGP
// message and snapshot-rebuild counters stay unchanged over five polls
// 20 ms apart.
func quiesce() {
	activity := func() float64 {
		c := snapCounters()
		return c.sum("bgp_messages_in_total") + c.sum("bgp_messages_out_total") + c.sum("rib_snapshot_builds_total")
	}
	last, still := -1.0, 0
	_ = waitUntil(establishTimeout, func() bool {
		if now := activity(); now == last {
			still++
		} else {
			last, still = now, 0
		}
		time.Sleep(20 * time.Millisecond)
		return still >= 5
	})
}

// repeat runs fn after a settle until it ran at least n times and for
// at least the run's side-phase block length: cheap operations then take
// many samples spread over time, expensive ones at least n.
func (r *run) repeat(n int, fn func(i int)) {
	r.settle()
	start := time.Now()
	for i := 0; i < n || time.Since(start) < r.sideFor; i++ {
		fn(i)
	}
}

// client returns the i-th experiment round-robin: spreading side-phase
// measurements over every experiment of the workload averages out how
// each one's table happened to be laid out in memory.
func (r *run) client(i int) *peering.Client { return r.tb.clients[i%len(r.tb.clients)] }

// sidePings pings seeded destinations via the best route, or via their
// seeded neighbors.
func (r *run) sidePings(via bool) {
	r.repeat(r.side, func(i int) {
		k := (i * 7) % len(r.in.pingDst)
		if via {
			r.ping(r.client(i), r.in.pingVia[k], r.in.pingDst[k])
		} else {
			r.ping(r.client(i), -1, r.in.pingDst[k])
		}
	})
}

// refreshes runs bigRefreshes full-table refreshes of neighbor 0 per
// platform; small tables repeat them for a side-phase block.
func (r *run) refreshes() {
	if len(r.in.prefixes) < 4096 {
		r.repeat(1, func(int) { r.refresh() })
		return
	}
	r.settle()
	for i := 0; i < bigRefreshes; i++ {
		r.refresh()
	}
}

// bursts sends this platform's share of the run's SendIP bursts.
func (r *run) bursts() {
	r.settle()
	for i := 0; i < max(burstRounds/r.shares, 1); i++ {
		r.burst(r.client(i), burstPackets)
	}
}

func (r *run) sideOutbound() {
	g := newOpGen(r.in.seed, 300, r.in.exps[0], r.tb.clients[0])
	r.repeat(r.side, func(int) { r.outboundOp(g) })
}

func (r *run) sideInbound() {
	rng := newRand(r.in.seed, 400)
	r.repeat(r.side, func(i int) { r.inboundProbe(r.client(i), rng) })
}

// sideResidentAPI starts the control plane on the full-table platform,
// creates the resident API experiment, and runs n PATCH lifecycles
// through it.
func (r *run) sideResidentAPI(n int) {
	if !r.startResident() {
		return
	}
	r.settle()
	rng := newRand(r.in.seed, 500)
	for i := 0; i < n; i++ {
		r.residentLifecycle(r.tb.cp, r.resident, rng)
	}
}
