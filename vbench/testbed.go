package main

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/netsim"
	"repro/internal/pipe"
	"repro/internal/policy"
	"repro/peering"
)

const popName = "bench"

// benchNeighbor is one external neighbor the benchmark owns: the BGP
// speaker on the far side of a core.Router neighbor session, and the
// host standing in for its edge, which answers echo probes for any
// destination and counts the IPv4 frames the platform delivers to it.
type benchNeighbor struct {
	idx  int
	id   uint32
	asn  uint32
	name string
	addr netip.Addr
	core *core.Neighbor
	sess *bgp.Session
	conn net.Conn

	delivered atomic.Uint64

	mu sync.Mutex
	// recv models what the neighbor received from the platform: the
	// latest state per prefix, with the arrival time of that UPDATE.
	recv    map[netip.Prefix]recvRoute
	changed chan struct{} // closed and replaced on every UPDATE
	// drop, when positive, makes the neighbor ignore its drop-th UPDATE
	// (the deliberately broken input of the self-test).
	drop    int
	updates int
}

// recvRoute is the neighbor's view of one prefix.
type recvRoute struct {
	count   uint64 // UPDATEs received for the prefix
	present bool
	attrs   *bgp.PathAttrs
	at      time.Time
}

func (n *benchNeighbor) onUpdate(u *bgp.Update) {
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.updates++
	if n.drop > 0 && n.updates == n.drop {
		return
	}
	for _, w := range u.Withdrawn {
		r := n.recv[w.Prefix]
		n.recv[w.Prefix] = recvRoute{count: r.count + 1, at: now}
	}
	for _, nl := range u.NLRI {
		r := n.recv[nl.Prefix]
		n.recv[nl.Prefix] = recvRoute{count: r.count + 1, present: true, attrs: u.Attrs, at: now}
	}
	close(n.changed)
	n.changed = make(chan struct{})
}

// route returns the neighbor's view of prefix and a channel closed on
// the next UPDATE.
func (n *benchNeighbor) route(p netip.Prefix) (recvRoute, <-chan struct{}) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.recv[p], n.changed
}

// testbed is one platform under test: a single PoP, the bench-owned
// neighbors, and the connected toolkit experiments.
type testbed struct {
	in      *inputs
	p       *peering.Platform
	pop     *peering.PoP
	nbrs    []*benchNeighbor
	clients []*peering.Client
	cp      *controlPlane // the control plane, once started

	tableLoad    time.Duration
	sessionSetup []time.Duration
	// goroutines before the testbed started; close waits to get back
	// there, so no part of a closed testbed outlives it.
	goroutines int
}

const establishTimeout = 30 * time.Second

// newTestbed brings a platform up: PoP, neighbors established with
// their tables loaded into the router, then every experiment connected
// and holding the full ADD-PATH table.
func newTestbed(in *inputs, dropNth int) (*testbed, error) {
	tb := &testbed{in: in, goroutines: runtime.NumGoroutine()}
	tb.p = peering.NewPlatform(peering.PlatformConfig{ASN: platformASN})
	pop, err := tb.p.AddPoP(peering.PoPConfig{
		Name: popName, RouterID: netip.MustParseAddr("198.51.100.1"),
		LocalPool: netip.MustParsePrefix("127.65.0.0/16"), ExpLAN: netip.MustParsePrefix("100.65.0.0/24"),
	})
	if err != nil {
		return nil, err
	}
	tb.pop = pop
	for i := 0; i < numNeighbors; i++ {
		drop := 0
		if i == 0 {
			drop = dropNth
		}
		if err := tb.addNeighbor(i, drop); err != nil {
			tb.close()
			return nil, err
		}
	}
	for _, n := range tb.nbrs {
		if err := waitUntil(establishTimeout, func() bool { return n.sess.State() == bgp.StateEstablished }); err != nil {
			tb.close()
			return nil, fmt.Errorf("neighbor %s: %w", n.name, err)
		}
	}

	start := time.Now()
	for _, n := range tb.nbrs {
		if err := n.sess.SendBatch(in.tableUpdates(n.idx, 0)); err != nil {
			tb.close()
			return nil, fmt.Errorf("load table of %s: %w", n.name, err)
		}
	}
	want := numNeighbors * len(in.prefixes)
	if err := waitUntil(establishTimeout, func() bool { return pop.Router.RouteCount() == want }); err != nil {
		tb.close()
		return nil, fmt.Errorf("router holds %d of %d paths: %w", pop.Router.RouteCount(), want, err)
	}
	tb.tableLoad = time.Since(start)

	// Experiments connect one after the other, each once the previous one
	// holds its full table: concurrent dumps would interleave the clients'
	// tables in memory differently in every run.
	for _, al := range in.exps {
		c, d, err := tb.connect(al)
		if err != nil {
			tb.close()
			return nil, err
		}
		tb.clients = append(tb.clients, c)
		tb.sessionSetup = append(tb.sessionSetup, d)
		if err := tb.waitFullTable(c); err != nil {
			tb.close()
			return nil, err
		}
	}
	return tb, nil
}

// addNeighbor wires bench neighbor i to the router the way a PoP wires
// a directly connected network: a dedicated segment, a host for the
// edge, and a BGP session over an in-memory transport. A positive drop
// makes the neighbor ignore its drop-th UPDATE.
func (tb *testbed) addNeighbor(i, drop int) error {
	n := &benchNeighbor{
		idx: i, id: tb.p.NextNeighborID(), asn: tb.in.nbrASN[i],
		name:    fmt.Sprintf("nbr%d", i),
		addr:    neighborAddr(i),
		recv:    make(map[netip.Prefix]recvRoute),
		changed: make(chan struct{}),
		drop:    drop,
	}
	rtr := netip.AddrFrom4([4]byte{10, 200, byte(i), 254})
	seg := netsim.NewSegment("link-" + n.name)
	tb.pop.Router.AddInterface("if-"+n.name, "neighbor", netip.PrefixFrom(rtr, 24), seg)
	h := netsim.NewHost(n.name)
	h.EchoAll = true
	ifc := h.AddInterface("eth0", ethernet.MAC{0x02, 0xbe, 0, 0, 0, byte(i + 1)}, netip.PrefixFrom(n.addr, 24), seg)
	h.SetDefaultRoute(rtr, ifc)
	ifc.AddIngressFilter(netsim.FilterFunc(func(data []byte) netsim.Verdict {
		if len(data) >= 14 && data[12] == 0x08 && data[13] == 0x00 {
			n.delivered.Add(1)
		}
		return netsim.VerdictPass
	}))

	cr, cn := pipe.New()
	nb, err := tb.pop.Router.AddNeighbor(core.NeighborConfig{
		Name: n.name, ID: n.id, ASN: n.asn, Addr: n.addr, Interface: "if-" + n.name, Conn: cr,
	})
	if err != nil {
		return err
	}
	n.core, n.conn = nb, cn
	n.sess = bgp.NewSession(cn, bgp.Config{
		LocalASN: n.asn, RemoteASN: platformASN, LocalID: n.addr,
		PeerName: "vbench:" + n.name, OnUpdate: n.onUpdate,
	})
	go func() { _ = n.sess.Run() }()
	tb.nbrs = append(tb.nbrs, n)
	return nil
}

// connect runs the §4.6 workflow for one experiment and brings its
// tunnel and BGP session up, returning the session set-up time.
func (tb *testbed) connect(al allocation) (*peering.Client, time.Duration, error) {
	if err := tb.p.Submit(peering.Proposal{
		Name: al.name, Owner: "vbench", Plan: "benchmark",
		Prefixes: []netip.Prefix{al.prefix}, ASNs: []uint32{al.asn},
	}); err != nil {
		return nil, 0, err
	}
	key, err := tb.p.Approve(al.name, &policy.Capabilities{MaxCommunities: 8, MaxPathLen: 16})
	if err != nil {
		return nil, 0, err
	}
	c := peering.NewClient(al.name, key, al.asn)
	start := time.Now()
	if err := c.OpenTunnel(tb.pop); err != nil {
		return nil, 0, err
	}
	if err := c.StartBGP(popName); err != nil {
		return nil, 0, err
	}
	if err := c.WaitEstablished(popName, establishTimeout); err != nil {
		return nil, 0, err
	}
	return c, time.Since(start), nil
}

// waitFullTable waits until c holds every neighbor's path for every
// table prefix. A cursor resumes at the first incomplete prefix, so the
// polling costs one pass over the table in total.
func (tb *testbed) waitFullTable(c *peering.Client) error {
	next := 0
	return waitUntil(2*establishTimeout, func() bool {
		for ; next < len(tb.in.prefixes); next++ {
			if len(c.RoutesFor(popName, tb.in.prefixes[next])) != numNeighbors {
				return false
			}
		}
		return true
	})
}

// neighborByID maps an ADD-PATH ID back to the bench neighbor.
func (tb *testbed) neighborByID(id uint32) *benchNeighbor {
	for _, n := range tb.nbrs {
		if n.id == id {
			return n
		}
	}
	return nil
}

// checkInbound verifies every path the client holds for the table: one
// per neighbor, ADD-PATH ID equal to the neighbor ID, next hop the
// neighbor's local-pool address. It returns the number of prefixes
// checked and the number that failed.
func (tb *testbed) checkInbound(c *peering.Client) (checked, failed int) {
	for _, p := range tb.in.prefixes {
		checked++
		paths := c.RoutesFor(popName, p)
		ok := len(paths) > 0
		for _, path := range paths {
			n := tb.neighborByID(uint32(path.ID))
			if n == nil || path.NextHop() != n.core.LocalIP {
				ok = false
			}
		}
		if !ok {
			failed++
		}
	}
	return checked, failed
}

// close tears the testbed down: experiments first, so neighbor
// withdrawals are not exported, then the neighbor sessions and the
// platform's shared services.
func (tb *testbed) close() {
	if tb.cp != nil {
		tb.cp.close()
	}
	for _, c := range tb.clients {
		_ = c.StopBGP(popName)
		_ = c.CloseTunnel(popName)
	}
	for _, n := range tb.nbrs {
		n.sess.Close()
		<-n.sess.Done()
		n.conn.Close()
	}
	_ = tb.p.Close()
	if err := waitUntil(establishTimeout, func() bool { return runtime.NumGoroutine() <= tb.goroutines }); err != nil {
		logf("testbed close: %d goroutines left, %d before", runtime.NumGoroutine(), tb.goroutines)
	}
}

var errTimeout = errors.New("timed out")

// waitUntil polls cond every millisecond until it holds or d lapses.
func waitUntil(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return errTimeout
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vbench: "+format+"\n", args...)
}
