package collector

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/pipe"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

// speakerFor wires a collector against a scripted announcing session.
func speakerFor(t *testing.T, c func(conn *pipe.Conn)) *Collector {
	t.Helper()
	ca, cb := pipe.New()
	col := New("rv.test", 6447, 47065, ip("128.223.51.102"), ca)
	t.Cleanup(col.Close)
	c(cb)
	return col
}

func startAnnouncer(t *testing.T, conn *pipe.Conn) *bgp.Session {
	t.Helper()
	est := make(chan struct{})
	s := bgp.NewSession(conn, bgp.Config{
		LocalASN: 47065, RemoteASN: 6447, LocalID: ip("198.51.100.1"),
		AddPath: map[bgp.AFISAFI]uint8{
			bgp.IPv4Unicast: bgp.AddPathSend,
			bgp.IPv6Unicast: bgp.AddPathSend,
		},
		OnEstablished: func() { close(est) },
	})
	go s.Run()
	t.Cleanup(func() { s.Close() })
	select {
	case <-est:
	case <-time.After(5 * time.Second):
		t.Fatal("announcer did not establish")
	}
	return s
}

func announce(t *testing.T, s *bgp.Session, prefix string, id uint32, asns []uint32) {
	t.Helper()
	attrs := &bgp.PathAttrs{
		Origin: bgp.OriginIGP, HasOrigin: true,
		ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
		NextHop:     ip("198.51.100.1"),
		Communities: []bgp.Community{bgp.NewCommunity(47065, 100)},
	}
	if err := s.Send(&bgp.Update{Attrs: attrs, NLRI: []bgp.NLRI{{Prefix: pfx(prefix), ID: bgp.PathID(id)}}}); err != nil {
		t.Fatal(err)
	}
}

func waitEvents(t *testing.T, col *Collector, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for col.EventCount() < n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if col.EventCount() < n {
		t.Fatalf("events = %d, want >= %d", col.EventCount(), n)
	}
}

func TestCollectorRecordsAnnouncesAndWithdraws(t *testing.T) {
	var sess *bgp.Session
	col := speakerFor(t, func(conn *pipe.Conn) { sess = startAnnouncer(t, conn) })

	announce(t, sess, "192.168.0.0/24", 1, []uint32{65001, 65002})
	announce(t, sess, "192.168.0.0/24", 2, []uint32{65003})
	waitEvents(t, col, 2)
	if got := col.RIB().PathCount(); got != 2 {
		t.Fatalf("RIB paths = %d (ADD-PATH reception)", got)
	}

	if err := sess.Send(&bgp.Update{Withdrawn: []bgp.NLRI{{Prefix: pfx("192.168.0.0/24"), ID: 1}}}); err != nil {
		t.Fatal(err)
	}
	waitEvents(t, col, 3)
	if got := col.RIB().PathCount(); got != 1 {
		t.Fatalf("RIB paths after withdraw = %d", got)
	}

	hist := col.History(pfx("192.168.0.0/24"))
	if len(hist) != 3 || hist[0].Withdraw || !hist[2].Withdraw {
		t.Fatalf("history kinds: %+v", hist)
	}
	for _, e := range hist {
		if e.Peer != col.Name || e.Dups != 1 {
			t.Errorf("record peer/dups = %q/%d, want %q/1", e.Peer, e.Dups, col.Name)
		}
	}
	if hist[0].ASPath[0] != 65001 || len(hist[0].Communities) != 1 {
		t.Errorf("recorded attrs: %+v", hist[0])
	}

	snap := col.Snapshot()
	if len(snap) != 1 || snap[0].PathID != 2 {
		t.Errorf("snapshot: %+v", snap)
	}
}

func TestCollectorTimeWindow(t *testing.T) {
	var sess *bgp.Session
	col := speakerFor(t, func(conn *pipe.Conn) { sess = startAnnouncer(t, conn) })
	base := time.Unix(1700000000, 0)
	now := base
	col.Now = func() time.Time { return now }

	announce(t, sess, "10.0.0.0/24", 0, []uint32{65001})
	waitEvents(t, col, 1)
	now = base.Add(time.Hour)
	announce(t, sess, "10.0.1.0/24", 0, []uint32{65001})
	waitEvents(t, col, 2)

	early := col.Events(time.Time{}, base.Add(time.Minute))
	if len(early) != 1 || early[0].Prefix != pfx("10.0.0.0/24") {
		t.Errorf("early window: %+v", early)
	}
	late := col.Events(base.Add(time.Minute), time.Time{})
	if len(late) != 1 || late[0].Prefix != pfx("10.0.1.0/24") {
		t.Errorf("late window: %+v", late)
	}
	if all := col.Events(time.Time{}, time.Time{}); len(all) != 2 {
		t.Errorf("unbounded window: %d", len(all))
	}
}
