package peering

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/inet"
	"repro/internal/telemetry"
)

// viewsTestbed is a two-PoP platform over a small synthetic Internet
// with a history store, a TE controller whose client announces the
// anycast prefix at both PoPs, and the control plane's API served over
// HTTP.
func viewsTestbed(t *testing.T) (*Platform, *history.Store, *TEController, *httptest.Server) {
	t.Helper()
	hist, err := history.Open(history.Config{Dir: t.TempDir(), Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	gen := inet.DefaultGenConfig()
	gen.Tier2, gen.Edges = 12, 60
	anycast := pfx("184.164.224.0/24")
	p := NewPlatform(PlatformConfig{
		ASN: 47065, Topology: inet.Generate(gen), History: hist, Logf: t.Logf,
		TE: &TEConfig{Prefix: anycast, Clients: 2000, Seed: 7},
	})
	var pops []*PoP
	for i, name := range []string{"pop01", "pop02"} {
		pop, err := p.AddPoP(PoPConfig{
			Name:      name,
			RouterID:  addr(fmt.Sprintf("198.51.100.%d", i+1)),
			LocalPool: pfx(fmt.Sprintf("127.%d.0.0/16", 65+i)),
			ExpLAN:    pfx(fmt.Sprintf("100.%d.0.0/24", 65+i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pop.ConnectTransit(uint32(1000+i), 5); err != nil {
			t.Fatal(err)
		}
		pops = append(pops, pop)
	}
	if err := p.Submit(Proposal{
		Name: "te", Owner: "operator", Plan: "catchment views",
		Prefixes: []netip.Prefix{anycast}, ASNs: []uint32{61574},
	}); err != nil {
		t.Fatal(err)
	}
	key, err := p.Approve("te", nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient("te", key, 61574)
	for _, pop := range pops {
		if err := c.OpenTunnel(pop); err != nil {
			t.Fatal(err)
		}
		if err := c.StartBGP(pop.Name); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitEstablished(pop.Name, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	te, err := p.NewTEController(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pop := range pops {
		if err := c.Announce(pop.Name, anycast); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := NewControlPlane(p, ControlPlaneConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	cp.API.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		cp.Close()
		p.Close()
	})
	return p, hist, te, srv
}

// asJSON round-trips v through JSON so a direct call compares equal to
// the same value decoded from an API response.
func asJSON(t *testing.T, v any) any {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// getView fetches a /v1 view and decodes its JSON body.
func getView(t *testing.T, srv *httptest.Server, path string) (int, any) {
	t.Helper()
	code, body := httpJSON(t, srv, "GET", path, nil)
	var out any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET %s -> %d, body is not JSON: %s", path, code, body)
	}
	return code, out
}

// eventually retries a view-versus-direct comparison until routing has
// settled: catchment and history read live state, so one read can land
// between two updates.
func eventually(t *testing.T, what string, check func() (got, want any)) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, want := check()
		if reflect.DeepEqual(got, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s:\n got  %v\n want %v", what, got, want)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestViewsServeHistoryTEAndCatchment checks every platform view that
// used to live on a second HTTP surface against the direct call it
// wraps, plus the 400 answers for malformed parameters.
func TestViewsServeHistoryTEAndCatchment(t *testing.T) {
	p, hist, te, srv := viewsTestbed(t)
	anycast := te.cfg.Prefix

	// Catchment: the controller's populations, not the raw per-PoP
	// views the platform falls back to without a controller.
	for _, prefix := range []netip.Prefix{anycast, pfx("184.164.225.0/24")} {
		path := "/v1/catchment"
		if prefix != anycast {
			path += "?prefix=" + url.QueryEscape(prefix.String())
		}
		eventually(t, path, func() (any, any) {
			m, err := p.ResolveCatchments(prefix, te.Populations())
			if err != nil {
				t.Fatal(err)
			}
			code, got := getView(t, srv, path)
			if code != http.StatusOK {
				t.Fatalf("GET %s -> %d %v", path, code, got)
			}
			return got, asJSON(t, m)
		})
	}
	if _, got := getView(t, srv, "/v1/catchment"); asJSON(t, got).(map[string]any)["pop_clients"] == nil {
		t.Fatalf("/v1/catchment is not a resolved map: %v", got)
	}

	code, got := getView(t, srv, "/v1/te")
	if code != http.StatusOK || !reflect.DeepEqual(got, asJSON(t, te.Status())) {
		t.Fatalf("/v1/te -> %d %v, want %v", code, got, asJSON(t, te.Status()))
	}

	if !p.WaitMonitorDrained(5 * time.Second) {
		t.Fatal("monitor feed did not drain")
	}
	at := time.Now().UTC().Format(time.RFC3339Nano)
	atTime, _ := time.Parse(time.RFC3339Nano, at)
	q := url.Values{"prefix": {anycast.String()}, "at": {at}, "to": {at}, "a": {"pop01"}, "b": {"pop02"}}
	direct := map[string]func() (any, error){
		"stats": func() (any, error) {
			return struct {
				history.Stats
				Vantages []string `json:"vantages"`
			}{hist.Stats(), hist.Vantages()}, nil
		},
		"state":   func() (any, error) { return hist.StateAt(anycast, atTime) },
		"between": func() (any, error) { return hist.Between(anycast, time.Time{}, atTime) },
		"diff":    func() (any, error) { return hist.DiffPoPs("pop01", "pop02", atTime) },
	}
	for verb, call := range direct {
		path := "/v1/history/" + verb + "?" + q.Encode()
		eventually(t, path, func() (any, any) {
			want, err := call()
			if err != nil {
				t.Fatal(err)
			}
			code, got := getView(t, srv, path)
			if code != http.StatusOK {
				t.Fatalf("GET %s -> %d %v", path, code, got)
			}
			return got, asJSON(t, want)
		})
	}
	if st, err := hist.StateAt(anycast, atTime); err != nil || len(st) == 0 {
		t.Fatalf("history holds no state for %s (%v): the comparison above is vacuous", anycast, err)
	}

	for _, path := range []string{
		"/v1/history/state?prefix=bogus",
		"/v1/history/state",
		"/v1/history/between?prefix=" + url.QueryEscape(anycast.String()) + "&from=yesterday",
		"/v1/history/diff?a=pop01",
		"/v1/catchment?prefix=bogus",
		"/v1/rib?pop=pop01&prefix=bogus",
		"/v1/rib",
	} {
		code, body := httpJSON(t, srv, "GET", path, nil)
		if code != http.StatusBadRequest || !strings.Contains(string(body), `"error"`) {
			t.Errorf("GET %s -> %d %s, want 400 with an error envelope", path, code, body)
		}
	}
}
