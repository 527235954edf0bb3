package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/ethernet"
	"repro/peering"
)

const (
	changeTimeout = 5 * time.Second
	pingTimeout   = 2 * time.Second
	// refreshPoll paces the RoutesFor polls that wait for a full-table
	// refresh, which takes seconds.
	refreshPoll = time.Millisecond
	// userCommunityASN tags the experiments' own communities; they must
	// reach the neighbors untouched, unlike the platform's steering ones.
	userCommunityASN = 65000
)

// run is the state of one benchmark invocation on one testbed.
type run struct {
	in *inputs
	tb *testbed
	tr *tracer

	// End-to-end samples.
	outbound, inbound, rttBest, rttVia, api samples
	refreshRate, forwardPPS                 samples
	// Per-layer samples, measured from outside the layer.
	announceCall, routesforCall samples
	pollGap                     samples // time per inbound poll, in µs
	httpAck, ackToConverged     samples
	sendBatch, allocsPerFrame   samples
	heapPeak                    atomic.Uint64
	// shares is the number of platforms the run measures; side and
	// sideFor are one share's side-phase samples and block length.
	shares  int
	side    int
	sideFor time.Duration

	attempted, failed atomic.Uint64
	ops               atomic.Uint64 // operations completed, for CPU per op
	settleCPU         time.Duration // CPU taken by settle, left out of CPU per op
	failures          []string
	failMu            sync.Mutex

	model   model
	pingSeq atomic.Uint32
	medSeq  atomic.Uint32

	// The traced run's main phase is half untraced, half traced; the
	// workload's primary latency in each half gives the tracing overhead.
	primaryKind primaryKind
	halves      [2]samples
	apiNext     int // API lifecycles started, for their slots
	resident    *apiResident
	stateRoot   string
	stateN      int
}

// stateDir returns a fresh control-plane state directory.
func (r *run) stateDir(tag string) string {
	r.stateN++
	return filepath.Join(r.stateRoot, fmt.Sprintf("%s-%d", tag, r.stateN))
}

type primaryKind int

const (
	primaryRTTBest primaryKind = iota
	primaryOutbound
)

// primary records a sample of kind into the half of the traced run it
// was measured in.
func (r *run) primary(k primaryKind, d, unit time.Duration) {
	if r.tr == nil || k != r.primaryKind {
		return
	}
	half := 0
	if r.tr.on {
		half = 1
	}
	r.halves[half].addDur(d, unit)
}

// check counts one attempted operation and, when it failed, records why.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
		r.failMu.Lock()
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
		r.failMu.Unlock()
	}
	return ok
}

// expect is the plain model of one live announcement: which bench
// neighbors must hold it, and with which AS path and communities.
type expect struct {
	owner  string
	to     [numNeighbors]bool
	asPath []uint32
	comms  []bgp.Community
}

// model holds the live, steered announcements of every experiment.
type model struct {
	mu    sync.Mutex
	live  map[netip.Prefix]*expect
	known map[netip.Prefix]string // every prefix ever announced, by owner
}

func (m *model) get(p netip.Prefix) *expect {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live[p]
}

func (m *model) set(p netip.Prefix, e *expect) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.live == nil {
		m.live = make(map[netip.Prefix]*expect)
		m.known = make(map[netip.Prefix]string)
	}
	if e == nil {
		delete(m.live, p)
		return
	}
	m.live[p] = e
	m.known[p] = e.owner
}

// expectedPath is the AS path a neighbor must see for an announcement
// by asn with prepend extra copies: the platform ASN, then the
// experiment's.
func expectedPath(asn uint32, prepend int) []uint32 {
	path := []uint32{platformASN}
	for i := 0; i <= prepend; i++ {
		path = append(path, asn)
	}
	return path
}

func sortedComms(c []bgp.Community) []bgp.Community {
	out := slices.Clone(c)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// matches reports whether a neighbor's received route agrees with the
// model entry (nil: the neighbor must not hold the prefix).
func (e *expect) matches(i int, present bool, attrs *bgp.PathAttrs) bool {
	if e == nil || !e.to[i] {
		return !present
	}
	if !present || attrs == nil {
		return false
	}
	return slices.Equal(attrs.ASPathFlat(), e.asPath) && slices.Equal(sortedComms(attrs.Communities), e.comms)
}

// counts snapshots the per-neighbor UPDATE counts for prefix p.
func (r *run) counts(p netip.Prefix) (c [numNeighbors]uint64) {
	for i, n := range r.tb.nbrs {
		rt, _ := n.route(p)
		c[i] = rt.count
	}
	return c
}

// change is one expected route change old → new of p at the bench
// neighbors, started at start with the neighbors' UPDATE counts before.
type change struct {
	p        netip.Prefix
	old, new *expect
	before   [numNeighbors]uint64
	start    time.Time
}

// status reports whether every neighbor whose export of p changes has
// received its UPDATE, the last arrival, and whether each received
// exactly one UPDATE with the expected content. While not done, wait is
// closed by the next UPDATE at a neighbor still awaited.
func (r *run) status(c *change) (done bool, last time.Time, ok bool, wait <-chan struct{}) {
	ok = true
	for i, n := range r.tb.nbrs {
		if !(c.old != nil && c.old.to[i]) && !(c.new != nil && c.new.to[i]) {
			continue
		}
		rt, changed := n.route(c.p)
		if rt.count <= c.before[i] {
			return false, last, false, changed
		}
		if rt.at.After(last) {
			last = rt.at
		}
		ok = ok && rt.count == c.before[i]+1 && c.new.matches(i, rt.present, rt.attrs)
	}
	return true, last, ok, nil
}

// await blocks until the change is done and returns the time from its
// start to the last arrival.
func (r *run) await(c *change) (time.Duration, bool) {
	deadline := time.NewTimer(changeTimeout)
	defer deadline.Stop()
	for {
		done, last, ok, wait := r.status(c)
		if done {
			if !ok {
				logf("%s", r.describe(c))
			}
			return last.Sub(c.start), ok
		}
		select {
		case <-wait:
		case <-deadline.C:
			logf("timed out: %s", r.describe(c))
			return 0, false
		}
	}
}

// describe renders what each neighbor holds for a change's prefix
// against the model, for failure reports.
func (r *run) describe(c *change) string {
	s := fmt.Sprintf("%s:", c.p)
	for i, n := range r.tb.nbrs {
		rt, _ := n.route(c.p)
		var path []uint32
		if rt.attrs != nil {
			path = rt.attrs.ASPathFlat()
		}
		s += fmt.Sprintf(" [%s +%d present=%v path=%v want=%v]", n.name, rt.count-c.before[i],
			rt.present, path, c.new != nil && c.new.to[i])
	}
	return s
}

// opGen draws one toolkit client's closed-loop operations: announce,
// re-steer or withdraw one of its /24s, steered with ToNeighbors or
// ExceptNeighbors over 1-4 neighbors, with prepends and communities.
type opGen struct {
	rng  *rand.Rand
	al   allocation
	c    *peering.Client
	next int
	uses map[netip.Prefix]int
}

// maxUsesPerPrefix keeps every prefix under the §4.7 daily budget of
// 144 updates per prefix per PoP.
const maxUsesPerPrefix = 140

func newOpGen(seed int64, stream int64, al allocation, c *peering.Client) *opGen {
	return &opGen{rng: newRand(seed, stream), al: al, c: c, uses: make(map[netip.Prefix]int)}
}

// steer is one drawn steering choice: the neighbors that must receive
// the announcement, expressed as a whitelist (to) or a blacklist
// (except), with prepends and the experiment's own communities.
type steer struct {
	e          *expect
	to, except []uint32
	prepend    int
	comms      []bgp.Community
}

// steering draws a target set of 1-4 neighbors for an announcement by
// owner (asn).
func (r *run) steering(rng *rand.Rand, asn uint32, owner string) steer {
	k := 1 + rng.Intn(numNeighbors)
	s := steer{e: &expect{owner: owner}, prepend: rng.Intn(3)}
	var in, out []uint32
	for j, idx := range rng.Perm(numNeighbors) {
		if j < k {
			s.e.to[idx] = true
			in = append(in, r.tb.nbrs[idx].id)
		} else {
			out = append(out, r.tb.nbrs[idx].id)
		}
	}
	if rng.Intn(2) == 0 || len(out) == 0 {
		s.to = in
	} else {
		s.except = out
	}
	for j := rng.Intn(3); j > 0; j-- {
		s.comms = append(s.comms, bgp.NewCommunity(userCommunityASN, uint16(1+rng.Intn(999))))
	}
	s.e.asPath = expectedPath(asn, s.prepend)
	s.e.comms = sortedComms(s.comms)
	return s
}

func (s steer) options() []peering.AnnounceOption {
	var opts []peering.AnnounceOption
	if len(s.to) > 0 {
		opts = append(opts, peering.ToNeighbors(s.to...))
	}
	if len(s.except) > 0 {
		opts = append(opts, peering.ExceptNeighbors(s.except...))
	}
	if s.prepend > 0 {
		opts = append(opts, peering.WithPrepend(s.prepend))
	}
	if len(s.comms) > 0 {
		opts = append(opts, peering.WithCommunities(s.comms...))
	}
	return opts
}

// pendingOp is an issued operation whose route change is still awaited.
type pendingOp struct {
	change
	root int32
}

// startOutbound issues one toolkit operation of g: announce, re-steer or
// withdraw the next prefix with budget left. It returns nil when the
// call failed; more is false once every prefix spent its budget.
func (r *run) startOutbound(g *opGen) (op *pendingOp, more bool) {
	var p netip.Prefix
	for tries := 0; ; tries++ {
		if tries == len(g.al.slots) {
			return nil, false
		}
		p = g.al.slots[g.next%len(g.al.slots)]
		g.next++
		if g.uses[p] < maxUsesPerPrefix {
			break
		}
	}
	g.uses[p]++
	old := r.model.get(p)
	var s steer
	withdraw := old != nil && g.rng.Intn(3) == 0
	if !withdraw {
		s = r.steering(g.rng, g.al.asn, g.al.name)
	}
	id := r.tr.newOp()
	root := r.tr.begin("bench.outbound", -1, id)
	op = &pendingOp{change: change{p: p, old: old, new: s.e, before: r.counts(p)}, root: root}
	op.start = time.Now()
	var err error
	if withdraw {
		r.tr.call("peering.Client.Withdraw", root, id, func() { err = g.c.Withdraw(popName, p, 0) })
	} else {
		r.tr.call("peering.Client.Announce", root, id, func() { err = g.c.Announce(popName, p, s.options()...) })
	}
	r.announceCall.addDur(time.Since(op.start), time.Microsecond)
	if !r.check(err == nil, "%s %s: %v", g.al.name, p, err) {
		r.tr.end(root)
		return nil, true
	}
	r.model.set(p, s.e)
	return op, true
}

// finishOutbound records a completed (or timed-out) toolkit operation.
func (r *run) finishOutbound(op *pendingOp, lat time.Duration, ok bool) {
	r.tr.end(op.root)
	if r.check(ok, "outbound %s: wrong or missing UPDATE at a neighbor", op.p) {
		r.outbound.addDur(lat, time.Millisecond)
		r.primary(primaryOutbound, lat, time.Millisecond)
		r.ops.Add(1)
	}
}

// outboundOp runs one toolkit operation to completion.
func (r *run) outboundOp(g *opGen) bool {
	op, more := r.startOutbound(g)
	if op != nil {
		lat, ok := r.await(&op.change)
		r.finishOutbound(op, lat, ok)
	}
	return more
}

// ping sends one echo via neighbor index via (-1: best route) and checks
// that exactly the chosen neighbor's host received the request.
func (r *run) ping(c *peering.Client, via int, dst netip.Addr) {
	seq := r.pingSeq.Add(1)
	viaID := uint32(0)
	name := "peering.Client.Ping.best"
	if via >= 0 {
		viaID = r.tb.nbrs[via].id
		name = "peering.Client.Ping.via"
	}
	var before [numNeighbors]uint64
	for i, n := range r.tb.nbrs {
		before[i] = n.delivered.Load()
	}
	op := r.tr.newOp()
	var rtt time.Duration
	var err error
	r.tr.call(name, -1, op, func() {
		rtt, err = c.Ping(popName, viaID, dst, uint16(seq>>16), uint16(seq), pingTimeout)
	})
	if !r.check(err == nil, "ping %s via %d: %v", dst, viaID, err) {
		return
	}
	total := uint64(0)
	ok := true
	for i, n := range r.tb.nbrs {
		d := n.delivered.Load() - before[i]
		total += d
		if via >= 0 && (i == via) != (d == 1) {
			ok = false
		}
	}
	if !r.check(ok && total == 1, "ping %s via %d left through the wrong neighbor", dst, viaID) {
		return
	}
	if via >= 0 {
		r.rttVia.addDur(rtt, time.Microsecond)
	} else {
		r.rttBest.addDur(rtt, time.Microsecond)
		r.primary(primaryRTTBest, rtt, time.Microsecond)
	}
	r.ops.Add(1)
}

// visible reports whether the client holds neighbor n's path for p
// with the given MED, carrying the neighbor's local-pool next hop.
func (r *run) visible(c *peering.Client, n *benchNeighbor, p netip.Prefix, med uint32) (seen, ok bool) {
	start := time.Now()
	paths := c.RoutesFor(popName, p)
	r.routesforCall.addDur(time.Since(start), time.Microsecond)
	for _, path := range paths {
		if uint32(path.ID) == n.id && path.Attrs != nil && path.Attrs.HasMED && path.Attrs.MED == med {
			return true, path.NextHop() == n.core.LocalIP
		}
	}
	return false, true
}

// inboundProbe sends one attribute change from a neighbor and polls the
// client until the path shows it. The polls run back to back, yielding
// the processor between them: an inbound change takes a fraction of a
// millisecond, and a sleeping poller would measure its own wake-ups (the
// Go runtime rounds idle waits under a millisecond up to one). The mean
// time per poll is the resolution.
func (r *run) inboundProbe(c *peering.Client, rng *rand.Rand) {
	n := r.tb.nbrs[rng.Intn(numNeighbors)]
	idx := rng.Intn(len(r.in.prefixes))
	med := 1<<24 + r.medSeq.Add(1)
	u := r.in.medUpdate(n.idx, idx, med)
	op := r.tr.newOp()
	root := r.tr.begin("bench.inbound", -1, op)
	defer r.tr.end(root)
	start := time.Now()
	var err error
	r.tr.call("bgp.Session.Send", root, op, func() { err = n.sess.Send(u) })
	if !r.check(err == nil, "probe send: %v", err) {
		return
	}
	deadline := start.Add(changeTimeout)
	for polls := 1; ; polls++ {
		seen, ok := r.visible(c, n, r.in.prefixes[idx], med)
		if seen {
			lat := time.Since(start)
			if r.check(ok, "probe %s: wrong next hop", r.in.prefixes[idx]) {
				r.inbound.addDur(lat, time.Millisecond)
				r.pollGap.addDur(lat/time.Duration(polls), time.Microsecond)
				r.ops.Add(1)
			}
			return
		}
		if time.Now().After(deadline) {
			r.check(false, "probe %s from %s never became visible", r.in.prefixes[idx], n.name)
			return
		}
		runtime.Gosched()
	}
}

// refresh has neighbor 0 re-announce its whole table with a new MED and
// times until every experiment holds every route with the new
// attributes. The router and each experiment session keep order, so the
// last prefix sent arriving marks the end; every route is verified
// afterwards.
func (r *run) refresh() {
	n := r.tb.nbrs[0]
	med := 1<<25 + r.medSeq.Add(1)
	updates := r.in.tableUpdates(0, med)
	last := r.in.prefixes[len(r.in.prefixes)-1]
	op := r.tr.newOp()
	root := r.tr.begin("bench.refresh", -1, op)
	start := time.Now()
	var err error
	r.tr.call("bgp.Session.SendBatch", root, op, func() { err = n.sess.SendBatch(updates) })
	r.sendBatch.addDur(time.Since(start), time.Microsecond)
	if !r.check(err == nil, "refresh send: %v", err) {
		r.tr.end(root)
		return
	}
	deadline := start.Add(30 * time.Second)
	for _, c := range r.tb.clients {
		for {
			if seen, _ := r.visible(c, n, last, med); seen {
				break
			}
			if time.Now().After(deadline) {
				r.tr.end(root)
				r.check(false, "refresh never completed at %s", c.Name)
				return
			}
			time.Sleep(refreshPoll)
		}
	}
	d := time.Since(start)
	r.tr.end(root)
	bad := 0
	for _, c := range r.tb.clients {
		for _, p := range r.in.prefixes {
			if seen, ok := r.visible(c, n, p, med); !seen || !ok {
				bad++
			}
		}
	}
	if r.check(bad == 0, "refresh: %d routes missing or wrong", bad) {
		r.refreshRate.add(float64(len(updates)) / d.Seconds())
		r.ops.Add(uint64(len(updates)))
	}
}

// burst sends count minimum-size UDP packets via the best route and
// times until the router has forwarded all of them; every one must reach
// a neighbor host.
func (r *run) burst(c *peering.Client, count int) {
	var delivered uint64
	for _, n := range r.tb.nbrs {
		delivered += n.delivered.Load()
	}
	fwd := r.tb.pop.Router.Forwarded.Load()
	// 8-byte UDP header and 18 bytes of data: a 64-byte Ethernet frame.
	payload := make([]byte, 26)
	payload[4], payload[5] = 0, 26
	pkt := &ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, Payload: payload}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	op := r.tr.newOp()
	root := r.tr.begin("bench.burst", -1, op)
	start := time.Now()
	for i := 0; i < count; i++ {
		pkt.Src = netip.Addr{}
		pkt.Dst = r.in.pingDst[i%len(r.in.pingDst)]
		if err := c.SendIP(popName, 0, pkt); err != nil {
			r.tr.end(root)
			r.check(false, "burst SendIP: %v", err)
			return
		}
	}
	err := waitUntil(changeTimeout, func() bool {
		return r.tb.pop.Router.Forwarded.Load()-fwd >= uint64(count)
	})
	d := time.Since(start)
	r.tr.end(root)
	if !r.check(err == nil, "burst: %d of %d forwarded", r.tb.pop.Router.Forwarded.Load()-fwd, count) {
		return
	}
	_ = waitUntil(changeTimeout, func() bool {
		var now uint64
		for _, n := range r.tb.nbrs {
			now += n.delivered.Load()
		}
		return now-delivered >= uint64(count)
	})
	var now uint64
	for _, n := range r.tb.nbrs {
		now += n.delivered.Load()
	}
	runtime.ReadMemStats(&ms)
	r.allocsPerFrame.add(float64(ms.Mallocs-mallocs) / float64(count))
	r.heapPeak.Store(max(r.heapPeak.Load(), ms.HeapInuse))
	if r.check(now-delivered == uint64(count), "burst: %d of %d delivered", now-delivered, count) {
		r.forwardPPS.add(float64(count) / d.Seconds())
		r.ops.Add(uint64(count))
	}
}

// checkNeighbors compares every bench neighbor's received state and the
// router's Neighbor.AdjOut with the model, one check per prefix.
func (r *run) checkNeighbors() {
	r.model.mu.Lock()
	known := make(map[netip.Prefix]string, len(r.model.known))
	for p, owner := range r.model.known {
		known[p] = owner
	}
	r.model.mu.Unlock()
	for p, owner := range known {
		e := r.model.get(p)
		ok := true
		for i, n := range r.tb.nbrs {
			rt, _ := n.route(p)
			if !e.matches(i, rt.present, rt.attrs) {
				ok = false
			}
			out := n.core.AdjOut.Paths(p)
			switch {
			case e == nil || !e.to[i]:
				ok = ok && len(out) == 0
			default:
				ok = ok && len(out) == 1 && out[0].Peer == owner && e.matches(i, true, out[0].Attrs)
			}
		}
		r.check(ok, "end state of %s (%s) differs from the model", p, owner)
	}
}
