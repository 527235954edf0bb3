package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"os"
	"time"

	"repro/internal/ctlplane"
	"repro/peering"
)

// controlPlane is the platform's declarative control plane, durable on
// a state directory as peeringd -state-dir runs it, served over HTTP on
// loopback and driven through one keep-alive connection.
type controlPlane struct {
	cp     *peering.ControlPlane
	srv    *http.Server
	served chan struct{}
	base   string
	client *http.Client
	dir    string
}

func startControlPlane(p *peering.Platform, dir string) (*controlPlane, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cp, err := peering.NewControlPlane(p, peering.ControlPlaneConfig{StateDir: dir, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cp.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	cp.API.Register(mux)
	c := &controlPlane{
		cp: cp, srv: &http.Server{Handler: mux}, served: make(chan struct{}),
		base: "http://" + ln.Addr().String(), dir: dir,
		client: &http.Client{Timeout: changeTimeout, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
	go func() {
		defer close(c.served)
		_ = c.srv.Serve(ln)
	}()
	return c, nil
}

func (c *controlPlane) close() {
	c.client.CloseIdleConnections()
	_ = c.srv.Close()
	<-c.served
	c.cp.Close()
	_ = os.RemoveAll(c.dir)
}

// do sends one API request and decodes the object in the reply.
func (c *controlPlane) do(method, path string, body any, want int) (ctlplane.Object, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return ctlplane.Object{}, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return ctlplane.Object{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return ctlplane.Object{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return ctlplane.Object{}, err
	}
	if resp.StatusCode != want {
		return ctlplane.Object{}, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var v struct {
		Object ctlplane.Object `json:"object"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return ctlplane.Object{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return v.Object, nil
}

// apiAnnouncement draws a steered announcement of p for an API spec and
// the model entry it must produce.
func (r *run) apiAnnouncement(rng *rand.Rand, name string, p netip.Prefix) (ctlplane.Announcement, *expect) {
	s := r.steering(rng, r.in.apiASN, name)
	a := ctlplane.Announcement{
		Prefix: p.String(), PoPs: []string{popName}, Prepend: s.prepend,
		ToNeighbors: s.to, ExceptNeighbors: s.except,
	}
	for _, c := range s.comms {
		a.Communities = append(a.Communities, fmt.Sprintf("%d:%d", c.ASN(), c.Value()))
	}
	return a, s.e
}

// resteer draws a steered announcement of p whose knobs differ from
// prev's: the reconciler rightly leaves an unchanged announcement alone.
func (r *run) resteer(rng *rand.Rand, name string, p netip.Prefix, prev ctlplane.Announcement) (ctlplane.Announcement, *expect) {
	fingerprint := func(a ctlplane.Announcement) string {
		if a.Prefix == "" {
			return ""
		}
		return ctlplane.Spec{Name: name, Announcements: []ctlplane.Announcement{a}}.Compile()[0].Fingerprint()
	}
	for {
		a, e := r.apiAnnouncement(rng, name, p)
		if fingerprint(a) != fingerprint(prev) {
			return a, e
		}
	}
}

func (r *run) apiSpec(name string, alloc netip.Prefix, anns ...ctlplane.Announcement) ctlplane.Spec {
	return ctlplane.Spec{
		Name: name, Owner: "vbench", ASN: r.in.apiASN,
		Prefixes: []string{alloc.String()}, Announcements: anns,
	}
}

// apiStep sends one API request whose effect is the route change
// old → new for p, and times it from the request to the UPDATE at the
// last affected neighbor.
func (r *run) apiStep(c *controlPlane, method, path string, body any, want int, p netip.Prefix, old, new *expect) (ctlplane.Object, bool) {
	op := r.tr.newOp()
	root := r.tr.begin("bench.api", -1, op)
	defer r.tr.end(root)
	ch := change{p: p, old: old, new: new, before: r.counts(p), start: time.Now()}
	var obj ctlplane.Object
	var err error
	r.tr.call("ctlplane.http."+method, root, op, func() { obj, err = c.do(method, path, body, want) })
	ack := time.Now()
	r.httpAck.addDur(ack.Sub(ch.start), time.Millisecond)
	if !r.check(err == nil, "api: %v", err) {
		return obj, false
	}
	r.model.set(p, new)
	lat, ok := r.await(&ch)
	if !r.check(ok, "api %s %s: wrong or missing UPDATE at a neighbor", method, path) {
		return obj, false
	}
	r.api.addDur(lat, time.Millisecond)
	r.ops.Add(1)
	// The reconciler confirms convergence on its next pass (every 250 ms
	// by default), so only the first few steps of a traced run wait for it.
	if r.tr != nil && r.tr.on && r.ackToConverged.n() < convergedSamples {
		name := obj.Spec.Name
		err := waitUntil(changeTimeout, func() bool {
			st, ok := c.cp.Reconciler.ObjectStatusFor(name)
			return ok && st.ConvergedRevision >= obj.Revision
		})
		if err == nil {
			r.ackToConverged.addDur(time.Since(ack), time.Millisecond)
		}
	}
	return obj, true
}

// convergedSamples bounds the ack_to_converged_ms samples of a run.
const convergedSamples = 20

// apiResident is one long-lived API experiment that PATCH lifecycles
// announce, re-steer and withdraw through. Every newly created
// experiment session receives the whole ADD-PATH table, which would
// swamp a full-table measurement. The lifecycles stop short of DELETE:
// the platform's teardown unregisters an experiment while its last
// withdrawal may still be in flight, and policy then rejects that
// withdrawal (see NOTES.md). A permanent anchor announcement keeps the
// session up between lifecycles.
type apiResident struct {
	name   string
	alloc  netip.Prefix
	anchor ctlplane.Announcement
	obj    ctlplane.Object
}

// residentAlloc covers the API slots and the anchor /24 after them.
var residentAlloc = netip.MustParsePrefix("184.166.0.0/18")

// createResident creates the resident experiment and waits until its
// anchor reached every neighbor. The caller settles before measuring:
// the table dump to the new session runs on after that.
func (r *run) createResident(c *controlPlane) (*apiResident, error) {
	anchor := netip.PrefixFrom(netip.AddrFrom4([4]byte{184, 166, apiPool, 0}), 24)
	res := &apiResident{
		name: "resident", alloc: residentAlloc,
		anchor: ctlplane.Announcement{Prefix: anchor.String(), PoPs: []string{popName}},
	}
	e := &expect{owner: res.name, asPath: expectedPath(r.in.apiASN, 0)}
	for i := range e.to {
		e.to[i] = true
	}
	obj, err := c.do(http.MethodPost, "/v1/experiments", r.apiSpec(res.name, res.alloc, res.anchor), http.StatusCreated)
	if err != nil {
		return nil, err
	}
	res.obj = obj
	r.model.set(anchor, e)
	// The new session first receives the whole table, so the anchor may
	// take as long as a set-up to reach the neighbors, and the reconciler
	// may announce it again meanwhile: wait for the state, not one UPDATE.
	arrived := func() bool {
		for i, n := range r.tb.nbrs {
			if rt, _ := n.route(anchor); !e.matches(i, rt.present, rt.attrs) {
				return false
			}
		}
		return true
	}
	if err := waitUntil(establishTimeout, arrived); err != nil {
		st, _ := c.cp.Reconciler.ObjectStatusFor(res.name)
		return nil, fmt.Errorf("resident API experiment: anchor %s not exported: %w; status %+v", anchor, err, st)
	}
	return res, nil
}

// residentLifecycle PATCHes one announcement in, re-steers it and
// PATCHes it out again.
func (r *run) residentLifecycle(c *controlPlane, res *apiResident, rng *rand.Rand) {
	r.apiNext++
	p := r.in.apiSlots[r.apiNext%len(r.in.apiSlots)]
	path := "/v1/experiments/" + res.name
	var prev *expect
	var prevAnn ctlplane.Announcement
	for step := 0; step < 3; step++ {
		anns := []ctlplane.Announcement{res.anchor}
		var e *expect
		if step < 2 {
			var a ctlplane.Announcement
			a, e = r.resteer(rng, res.name, p, prevAnn)
			anns = append(anns, a)
			prevAnn = a
		}
		body := map[string]any{"revision": res.obj.Revision, "spec": r.apiSpec(res.name, res.alloc, anns...)}
		obj, ok := r.apiStep(c, http.MethodPatch, path, body, http.StatusOK, p, prev, e)
		if !ok {
			// Re-read the revision so the next lifecycle can continue.
			if o, err := c.do(http.MethodGet, path, nil, http.StatusOK); err == nil {
				res.obj = o
			}
			return
		}
		res.obj = obj
		prev = e
	}
}

// startResident starts the control plane unless the set-up did, and
// creates the resident API experiment.
func (r *run) startResident() bool {
	if r.tb.cp == nil {
		cp, err := startControlPlane(r.tb.p, r.stateDir("side"))
		if !r.check(err == nil, "control plane: %v", err) {
			return false
		}
		r.tb.cp = cp
	}
	res, err := r.createResident(r.tb.cp)
	if !r.check(err == nil, "resident: %v", err) {
		return false
	}
	r.resident = res
	return true
}

// retireResident PATCHes the resident API experiment down to no
// announcements, so the reconciler withdraws its anchor and closes its
// session, and waits until every neighbor dropped the anchor. The
// experiment stays registered, so its sessions end with the platform.
func (r *run) retireResident() {
	c, res := r.tb.cp, r.resident
	r.resident = nil
	anchor := netip.MustParsePrefix(res.anchor.Prefix)
	body := map[string]any{"revision": res.obj.Revision, "spec": r.apiSpec(res.name, res.alloc)}
	_, err := c.do(http.MethodPatch, "/v1/experiments/"+res.name, body, http.StatusOK)
	if !r.check(err == nil, "retire resident: %v", err) {
		return
	}
	r.model.set(anchor, nil)
	gone := func() bool {
		for _, n := range r.tb.nbrs {
			if rt, _ := n.route(anchor); rt.present {
				return false
			}
		}
		return true
	}
	r.check(waitUntil(changeTimeout, gone) == nil, "retire resident: anchor %s still exported", anchor)
}
