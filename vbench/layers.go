package main

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/ethernet"
	"repro/internal/pipe"
	"repro/internal/policy"
	"repro/internal/rib"
	"repro/internal/tunnel"
)

// layerProbe takes the outside view of every layer over the measured
// phase: registry counters, router and table counters, and runtime
// statistics, before and after.
type layerProbe struct {
	before, after       counters
	msBefore, msAfter   runtime.MemStats
	tables              []*rib.Table
	tabBefore, tabAfter rib.TableStats
	rtr                 [4]uint64 // updates, forwarded, no-route, no-MAC at start
	rtrAfter            [4]uint64
	heapPeak            uint64
	goroutines          int
}

func newLayerProbe(r *run) *layerProbe {
	l := &layerProbe{}
	for _, n := range r.tb.nbrs {
		l.tables = append(l.tables, n.core.Table)
	}
	return l
}

// start opens the measured phase.
func (l *layerProbe) start(r *run) {
	l.before = snapCounters()
	l.tabBefore = l.tableStats()
	l.rtr = routerCounters(r.tb.pop.Router)
	runtime.ReadMemStats(&l.msBefore)
	l.heapPeak = l.msBefore.HeapInuse
}

func routerCounters(rt *core.Router) [4]uint64 {
	return [4]uint64{rt.UpdatesProcessed(), rt.Forwarded.Load(), rt.DroppedNoRoute.Load(), rt.DroppedNoMAC.Load()}
}

func (l *layerProbe) tableStats() rib.TableStats {
	var sum rib.TableStats
	for _, t := range l.tables {
		s := t.Stats()
		sum.Lookups += s.Lookups
		sum.SnapshotLookups += s.SnapshotLookups
		sum.WriteLocks += s.WriteLocks
	}
	return sum
}

// finish closes the measured phase.
func (l *layerProbe) finish(r *run) {
	l.after = snapCounters()
	l.tabAfter = l.tableStats()
	l.rtrAfter = routerCounters(r.tb.pop.Router)
	runtime.ReadMemStats(&l.msAfter)
	l.heapPeak = max(l.heapPeak, l.msAfter.HeapInuse, r.heapPeak.Load())
	l.goroutines = runtime.NumGoroutine()
}

// rejections counts the policy verdicts other than accept between two
// snapshots.
func rejections(before, after counters) int {
	n := 0.0
	for _, action := range []string{"reject", "rate-limited", "rov-invalid", "damped"} {
		n += delta(before, after, "policy_verdicts_total", "action", action)
	}
	return int(n)
}

// metrics assembles the per-layer metrics, running the replays.
func (l *layerProbe) metrics(r *run, opts options) map[string]metric {
	d := func(name string, match ...string) float64 { return delta(l.before, l.after, name, match...) }
	ops := float64(max(r.ops.Load(), 1))
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	var sess samples
	for _, s := range r.tb.sessionSetup {
		sess.addDur(s, time.Millisecond)
	}
	put("peering.announce_call_us", r.announceCall.median(), "us")
	put("peering.routesfor_call_us", r.routesforCall.median(), "us")
	put("peering.session_setup_ms", sess.median(), "ms")
	put("peering.table_load_s", r.tb.tableLoad.Seconds(), "s")
	best, via := r.replaySendIP()
	put("peering.sendip_call_us.best", best, "us")
	put("peering.sendip_call_us.via", via, "us")

	put("bgp.send_batch_us", r.sendBatch.median(), "us")
	put("bgp.updates_in", d("bgp_messages_in_total", "type", "update"), "count")
	put("bgp.updates_out", d("bgp_messages_out_total", "type", "update"), "count")
	put("bgp.nlri_per_update", ratio(d("core_addpath_exports_total", "pop", popName),
		expUpdatesOut(l.after)-expUpdatesOut(l.before)), "ratio")
	put("bgp.bytes_out", d("bgp_message_out_bytes"), "B")
	enc, dec := r.replayCodec()
	put("bgp.encode_ns_per_update", enc, "ns")
	put("bgp.decode_ns_per_update", dec, "ns")

	put("rib.snapshot_builds", d("rib_snapshot_builds_total"), "count")
	put("rib.snapshot_lookup_ratio", ratio(float64(l.tabAfter.SnapshotLookups-l.tabBefore.SnapshotLookups),
		float64(l.tabAfter.Lookups-l.tabBefore.Lookups)), "ratio")
	put("rib.write_locks", float64(l.tabAfter.WriteLocks-l.tabBefore.WriteLocks), "count")
	put("rib.paths", l.after.sum("rib_paths"), "count")
	add, wd, lookup := r.replayRIB()
	put("rib.add_ns_per_path", add, "ns")
	put("rib.withdraw_ns_per_path", wd, "ns")
	put("rib.lookup_ns", lookup, "ns")

	put("core.lookupvia_ns", r.replayLookupVia(), "ns")
	put("core.updates_processed", float64(l.rtrAfter[0]-l.rtr[0]), "count")
	put("core.forwarded", float64(l.rtrAfter[1]-l.rtr[1]), "count")
	put("core.dropped_no_route", float64(l.rtrAfter[2]-l.rtr[2]), "count")
	put("core.dropped_no_mac", float64(l.rtrAfter[3]-l.rtr[3]), "count")
	put("core.addpath_exports", d("core_addpath_exports_total", "pop", popName), "count")
	put("core.nexthop_rewrites", d("core_nexthop_rewrites_total", "pop", popName), "count")
	put("core.table_selections", d("core_table_selections_total", "pop", popName), "count")
	put("core.mac_rewrites", d("core_mac_rewrites_total", "pop", popName), "count")

	evalNS, evalAllocs := r.replayPolicy()
	put("policy.evaluate_ns", evalNS, "ns")
	put("policy.evaluate_allocs", evalAllocs, "count")
	put("policy.verdicts.accept", d("policy_verdicts_total", "action", "accept")+d("policy_verdicts_total", "action", "accept-modified"), "count")
	put("policy.verdicts.reject", float64(rejections(l.before, l.after)), "count")

	antispoof, encNS, decNS := r.replayFrames()
	put("bpf.antispoof_ns_per_frame", antispoof, "ns")
	put("bpf.verdicts.pass", d("bpf_verdicts_total", "verdict", "pass"), "count")
	put("bpf.verdicts.drop", d("bpf_verdicts_total", "verdict", "drop"), "count")
	put("ethernet.frame_encode_ns", encNS, "ns")
	put("ethernet.frame_decode_ns", decNS, "ns")
	put("netsim.allocs_per_frame", r.allocsPerFrame.median(), "count")

	put("tunnel.sendframe_us", r.replayTunnel(), "us")
	put("tunnel.frames_in", d("tunnel_frames_in_total"), "count")
	put("tunnel.frames_out", d("tunnel_frames_out_total"), "count")

	put("telemetry.events", d("telemetry_events_total"), "count")
	put("telemetry.events_dropped", d("telemetry_events_dropped_total"), "count")

	put("ctlplane.http_ack_ms", r.httpAck.median(), "ms")
	put("ctlplane.wal_commit_ms", r.replayStore(filepath.Join(opts.workDir, "state", "replay")), "ms")
	put("ctlplane.ack_to_converged_ms", r.ackToConverged.median(), "ms")
	put("ctlplane.actuations", d("ctlplane_reconcile_actions_total"), "count")
	put("ctlplane.hub_drops", d("ctlplane_watch_dropped_total"), "count")

	put("runtime.gc_pause_ms", float64(l.msAfter.PauseTotalNs-l.msBefore.PauseTotalNs)/1e6, "ms")
	put("runtime.gc_cycles", float64(l.msAfter.NumGC-l.msBefore.NumGC), "count")
	put("runtime.heap_peak_mb", float64(l.heapPeak)/(1<<20), "MB")
	put("runtime.alloc_bytes_per_op", float64(l.msAfter.TotalAlloc-l.msBefore.TotalAlloc)/ops, "B")
	put("runtime.goroutines", float64(l.goroutines), "count")

	put("bench.trace_overhead_ratio", ratio(r.halves[1].median(), r.halves[0].median()), "ratio")
	put("failed_ratio", float64(r.failed.Load())/float64(max(r.attempted.Load(), 1)), "ratio")

	self := r.tr.selfTimes()
	for _, mod := range traceModules {
		put(mod+".self_us", self[mod], "us")
	}
	return m
}

// expUpdatesOut counts the UPDATEs the router sent on every experiment
// session at the PoP.
func expUpdatesOut(c counters) float64 {
	total := 0.0
	for _, s := range c {
		if s.Name != "bgp_messages_out_total" {
			continue
		}
		var peer, typ string
		for _, l := range s.Labels {
			switch l.Key {
			case "peer":
				peer = l.Value
			case "type":
				typ = l.Value
			}
		}
		if typ == "update" && strings.HasPrefix(peer, popName+":exp:") {
			total += s.Value
		}
	}
	return total
}

// traceModules are the layers spans are recorded for; bench is the
// benchmark's own waiting around them.
var traceModules = []string{"bench", "peering", "bgp", "rib", "core", "policy", "bpf", "ethernet", "tunnel", "ctlplane"}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timed runs fn n times and returns the mean nanoseconds per call; the
// first tracedCalls calls are also recorded as spans.
func (r *run) timed(name string, n int, fn func(i int)) float64 {
	const tracedCalls = 200
	op := r.tr.newOp()
	for i := 0; i < min(n, tracedCalls); i++ {
		r.tr.call(name, -1, op, func() { fn(i) })
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// replaySendIP times Client.SendIP of minimum-size UDP packets via the
// best route and via seeded neighbors, in microseconds per call.
func (r *run) replaySendIP() (best, via float64) {
	c := r.tb.clients[0]
	pkt := &ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, Payload: make([]byte, 26)}
	send := func(viaIdx, i int) {
		pkt.Src = netip.Addr{}
		pkt.Dst = r.in.pingDst[i%len(r.in.pingDst)]
		id := uint32(0)
		if viaIdx >= 0 {
			id = r.tb.nbrs[viaIdx].id
		}
		_ = c.SendIP(popName, id, pkt)
	}
	best = r.timed("peering.Client.SendIP.best", 2000, func(i int) { send(-1, i) }) / 1e3
	via = r.timed("peering.Client.SendIP.via", 50, func(i int) { send(r.in.pingVia[i%len(r.in.pingVia)], i) }) / 1e3
	return best, via
}

// replayCodec sends neighbor 0's table over a fresh session pair:
// encode is SendBatch's time per route; decode is the receiver's time
// per route once released on a fully buffered stream.
func (r *run) replayCodec() (encode, decode float64) {
	ca, cb := pipe.New()
	release := make(chan struct{})
	var got atomic.Int64
	var first atomic.Bool
	done := make(chan struct{})
	want := int64(len(r.in.prefixes))
	rcv := bgp.NewSession(ca, bgp.Config{LocalASN: 65002, RemoteASN: 65001, LocalID: netip.MustParseAddr("10.255.0.2"),
		PeerName: "vbench:replay-rx",
		OnUpdate: func(u *bgp.Update) {
			if first.CompareAndSwap(false, true) {
				<-release
			}
			if got.Add(int64(len(u.NLRI))) == want {
				close(done)
			}
		}})
	snd := bgp.NewSession(cb, bgp.Config{LocalASN: 65001, RemoteASN: 65002, LocalID: netip.MustParseAddr("10.255.0.1"),
		PeerName: "vbench:replay-tx"})
	go func() { _ = rcv.Run() }()
	go func() { _ = snd.Run() }()
	defer func() {
		snd.Close()
		rcv.Close()
		<-snd.Done()
		<-rcv.Done()
	}()
	if waitUntil(establishTimeout, func() bool {
		return snd.State() == bgp.StateEstablished && rcv.State() == bgp.StateEstablished
	}) != nil {
		close(release)
		return 0, 0
	}
	updates := r.in.tableUpdates(0, 0)
	op := r.tr.newOp()
	start := time.Now()
	r.tr.call("bgp.Session.SendBatch", -1, op, func() { _ = snd.SendBatch(updates) })
	encode = float64(time.Since(start).Nanoseconds()) / float64(len(updates))
	start = time.Now()
	id := r.tr.begin("bgp.decode", -1, op)
	close(release)
	select {
	case <-done:
	case <-time.After(changeTimeout):
		r.tr.end(id)
		return encode, 0
	}
	r.tr.end(id)
	decode = float64(time.Since(start).Nanoseconds()) / float64(len(updates))
	return encode, decode
}

// replayRIB loads every neighbor's table into a fresh rib.Table as the
// experiment's table holds it, looks the ping destinations up and
// withdraws everything.
func (r *run) replayRIB() (add, withdraw, lookup float64) {
	t := rib.NewTable("vbench-replay")
	t.EnableAutoSnapshot(core.DefaultSnapshotInterval)
	var paths []*rib.Path
	for _, n := range r.tb.nbrs {
		for i, p := range r.in.prefixes {
			paths = append(paths, &rib.Path{Prefix: p, ID: bgp.PathID(n.id), Peer: popName,
				Attrs: r.in.attrs[n.idx][i/groupSize], EBGP: true, Seq: rib.NextSeq()})
		}
	}
	start := time.Now()
	for i, p := range paths {
		id := int32(-1)
		if i < 200 {
			id = r.tr.begin("rib.Table.Add", -1, 0)
		}
		t.Add(p)
		r.tr.end(id)
	}
	add = float64(time.Since(start).Nanoseconds()) / float64(len(paths))
	t.BuildSnapshot()
	lookup = r.timed("rib.Table.Lookup", 100000, func(i int) { t.Lookup(r.in.pingDst[i%len(r.in.pingDst)]) })
	start = time.Now()
	for i, p := range paths {
		id := int32(-1)
		if i < 200 {
			id = r.tr.begin("rib.Table.Withdraw", -1, 0)
		}
		t.Withdraw(p.Prefix, p.Peer, p.ID)
		r.tr.end(id)
	}
	withdraw = float64(time.Since(start).Nanoseconds()) / float64(len(paths))
	return add, withdraw, lookup
}

// replayLookupVia times the router's per-neighbor lookup for the ping
// destinations on the live router.
func (r *run) replayLookupVia() float64 {
	return r.timed("core.Router.LookupVia", 20000, func(i int) {
		k := i % len(r.in.pingDst)
		r.tb.pop.Router.LookupVia(r.tb.nbrs[r.in.pingVia[k]].name, r.in.pingDst[k])
	})
}

// replayPolicy evaluates toolkit-style announcements on a separate
// engine: mean time and heap allocations per evaluation.
func (r *run) replayPolicy() (ns, allocs float64) {
	en := policy.NewEngine(platformASN)
	en.DailyUpdateLimit = 1 << 30
	for _, al := range r.in.exps {
		en.Register(&policy.Experiment{Name: al.name, Prefixes: []netip.Prefix{al.prefix},
			ASNs: []uint32{al.asn}, Caps: policy.Capabilities{MaxCommunities: 8, MaxPathLen: 16}})
	}
	rng := newRand(r.in.seed, 600)
	type input struct {
		exp    string
		prefix netip.Prefix
		attrs  *bgp.PathAttrs
	}
	const n = 20000
	ins := make([]input, n)
	nh := r.tb.clients[0].LocalIP(popName)
	for i := range ins {
		al := r.in.exps[i%len(r.in.exps)]
		s := r.steering(rng, al.asn, al.name)
		a := &bgp.PathAttrs{Origin: bgp.OriginIGP, HasOrigin: true,
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: s.e.asPath[1:]}},
			NextHop: nh, Communities: s.comms}
		ins[i] = input{al.name, al.slots[rng.Intn(len(al.slots))], a}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ns = r.timed("policy.Engine.EvaluateAnnouncement", n, func(i int) {
		en.EvaluateAnnouncement(ins[i].exp, popName, ins[i].prefix, ins[i].attrs)
	})
	runtime.ReadMemStats(&ms1)
	return ns, float64(ms1.Mallocs-ms0.Mallocs) / float64(n+min(n, 200))
}

// replayFrames builds the workload's ping frames and times the BPF
// anti-spoof program and the Ethernet codecs on them.
func (r *run) replayFrames() (antispoof, encode, decode float64) {
	c := r.tb.clients[0]
	src := c.LocalIP(popName)
	allowed := []netip.Prefix{netip.PrefixFrom(src, 32)}
	for _, al := range r.in.exps {
		allowed = append(allowed, al.prefix)
	}
	prog, err := bpf.SourceIPFilter("vbench-replay", allowed)
	if err != nil {
		return 0, 0, 0
	}
	frames := make([]ethernet.Frame, 1024)
	raw := make([][]byte, len(frames))
	for i := range frames {
		k := i % len(r.in.pingDst)
		echo := ethernet.ICMP{Type: ethernet.ICMPEchoRequest, ID: 1, Seq: uint16(i), Data: []byte("peering-probe")}
		ip := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoICMP, Src: src, Dst: r.in.pingDst[k], Payload: echo.Marshal()}
		frames[i] = ethernet.Frame{Dst: r.tb.nbrs[r.in.pingVia[k]].core.LocalMAC, Src: ethernet.MAC{0x0a, 0, 0, 0, 0, 1},
			Type: ethernet.TypeIPv4, Payload: ip.Marshal()}
		raw[i] = frames[i].Marshal()
	}
	const n = 100000
	antispoof = r.timed("bpf.Program.Run", n, func(i int) { prog.Run(raw[i%len(raw)]) })
	encode = r.timed("ethernet.Frame.Marshal", n, func(i int) { frames[i%len(frames)].Marshal() })
	var fr ethernet.Frame
	decode = r.timed("ethernet.Frame.DecodeFromBytes", n, func(i int) { _ = fr.DecodeFromBytes(raw[i%len(raw)]) })
	return antispoof, encode, decode
}

// replayTunnel sends minimum-size frames through a fresh authenticated
// tunnel pair: microseconds per SendFrame call; all must arrive.
func (r *run) replayTunnel() float64 {
	ca, cb := pipe.New()
	type served struct {
		t   *tunnel.Tunnel
		err error
	}
	ch := make(chan served, 1)
	go func() {
		t, err := tunnel.Serve(cb, tunnel.Credentials{"vbench": "replay"}, func(string) []byte { return []byte("replay") })
		ch <- served{t, err}
	}()
	cli, err := tunnel.Dial(ca, "vbench", "replay")
	srv := <-ch
	if err != nil || srv.err != nil {
		return 0
	}
	defer cli.Close()
	defer srv.t.Close()
	var got atomic.Int64
	srv.t.OnFrame(func([]byte) { got.Add(1) })
	frame := make([]byte, 64)
	const n = 20000
	per := r.timed("tunnel.Tunnel.SendFrame", n, func(int) { _ = cli.SendFrame(frame) })
	if waitUntil(changeTimeout, func() bool { return got.Load() >= n }) != nil {
		return 0
	}
	return per / 1e3
}

// replayStore commits API-style specs to a temporary durable store: the
// median milliseconds per commit, WAL write and fsync included.
func (r *run) replayStore(dir string) float64 {
	defer os.RemoveAll(dir)
	st, _, _, err := ctlplane.RecoverStore(ctlplane.StoreConfig{}, dir)
	if err != nil {
		return 0
	}
	defer st.Close()
	rng := newRand(r.in.seed, 700)
	var commits samples
	for i := 0; i < 200; i++ {
		p := r.in.apiSlots[i%len(r.in.apiSlots)]
		a, _ := r.apiAnnouncement(rng, "replay", p)
		spec := r.apiSpec(fmt.Sprintf("replay%d", i), p, a)
		start := time.Now()
		var err error
		r.tr.call("ctlplane.Store.Create", -1, 0, func() { _, _, err = st.Create(spec) })
		if err != nil {
			return 0
		}
		commits.addDur(time.Since(start), time.Millisecond)
	}
	return commits.median()
}
