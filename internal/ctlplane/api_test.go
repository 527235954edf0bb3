package ctlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
)

// apiHarness is a full control plane over the fake actuator, served
// from an in-memory HTTP server.
type apiHarness struct {
	store *Store
	rec   *Reconciler
	hub   *Hub
	act   *fakeActuator
	srv   *httptest.Server
}

func newAPIHarness(t *testing.T) *apiHarness {
	t.Helper()
	act := newFakeActuator()
	cfgStore := config.NewStore()
	store := NewStore(StoreConfig{
		Config: cfgStore,
		BaseModel: func() config.Model {
			return config.Model{
				PlatformASN: 47065,
				GlobalPool:  netip.MustParsePrefix("184.164.224.0/19"),
				PoPs:        []config.PoPSpec{{Name: "seattle"}, {Name: "amsterdam"}},
			}
		},
	})
	hub := NewHub()
	store.OnChange(func(c Change) { hub.Publish(StreamStore, c) })
	rec := NewReconciler(store, act, hub, ReconcilerConfig{
		Resync:         5 * time.Millisecond,
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		ActuationGrace: 100 * time.Millisecond,
		Logf:           t.Logf,
	})
	go rec.Run()

	deployer := config.NewDeployer(cfgStore, func(pop string, m config.Model) error { return nil })
	api := NewServer(ServerConfig{
		Store:      store,
		Reconciler: rec,
		Hub:        hub,
		Deploy:     &Deploy{Store: cfgStore, Deployer: deployer},
		Views: []View{
			{Path: "fleet", Usage: "  PoPs", Get: func(url.Values) (any, error) {
				return []string{"seattle", "amsterdam"}, nil
			}},
			{Path: "echo", Usage: "?x=V  echoes x", Get: func(q url.Values) (any, error) {
				switch q.Get("x") {
				case "":
					return nil, fmt.Errorf("%w: want x=V", ErrBadQuery)
				case "fail":
					return nil, errors.New("backend down")
				}
				return map[string]string{"x": q.Get("x")}, nil
			}},
		},
	})
	mux := http.NewServeMux()
	api.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		rec.Close()
		hub.Close()
	})
	return &apiHarness{store: store, rec: rec, hub: hub, act: act, srv: srv}
}

func (h *apiHarness) do(t *testing.T, method, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else if raw, ok := body.([]byte); ok {
		rd = bytes.NewReader(raw)
	} else {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, h.srv.URL+path, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := h.srv.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestAPICreateLifecycle(t *testing.T) {
	h := newAPIHarness(t)
	spec := testSpec("alpha")

	// Dry run validates without storing.
	resp, body := h.do(t, "POST", "/v1/experiments?dry_run=1", spec)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"dry_run": true`) {
		t.Fatalf("dry run -> %d %s", resp.StatusCode, body)
	}
	if _, err := h.store.Get("alpha"); err == nil {
		t.Fatal("dry run stored the object")
	}

	resp, body = h.do(t, "POST", "/v1/experiments", spec)
	if resp.StatusCode != 201 {
		t.Fatalf("create -> %d %s", resp.StatusCode, body)
	}
	var view objectView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("decode create response: %v", err)
	}
	rev := view.Object.Revision

	// Idempotent re-POST: 200, same revision.
	resp, body = h.do(t, "POST", "/v1/experiments", spec)
	if resp.StatusCode != 200 {
		t.Fatalf("re-create -> %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &view)
	if view.Object.Revision != rev {
		t.Fatalf("re-create bumped revision %d -> %d", rev, view.Object.Revision)
	}

	// Conflicting POST: 409.
	diff := testSpec("alpha")
	diff.Plan = "other"
	resp, _ = h.do(t, "POST", "/v1/experiments", diff)
	if resp.StatusCode != 409 {
		t.Fatalf("conflicting create -> %d, want 409", resp.StatusCode)
	}

	// GET returns object + status once the reconciler has seen it.
	waitPhase(t, h.rec, "alpha", PhaseConverged)
	resp, body = h.do(t, "GET", "/v1/experiments/alpha", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("get -> %d", resp.StatusCode)
	}
	json.Unmarshal(body, &view)
	if view.Status == nil || view.Status.Phase != PhaseConverged {
		t.Fatalf("get status = %+v, want converged", view.Status)
	}

	// PATCH with stale revision: 409. With current: 200.
	next := testSpec("alpha")
	next.Plan = "v2"
	resp, _ = h.do(t, "PATCH", "/v1/experiments/alpha", map[string]any{"revision": rev + 99, "spec": next})
	if resp.StatusCode != 409 {
		t.Fatalf("stale patch -> %d, want 409", resp.StatusCode)
	}
	resp, body = h.do(t, "PATCH", "/v1/experiments/alpha", map[string]any{"revision": rev, "spec": next})
	if resp.StatusCode != 200 {
		t.Fatalf("patch -> %d %s", resp.StatusCode, body)
	}

	// DELETE tombstones (202) and the reconciler removes it.
	resp, _ = h.do(t, "DELETE", "/v1/experiments/alpha", nil)
	if resp.StatusCode != 202 {
		t.Fatalf("delete -> %d, want 202", resp.StatusCode)
	}
	waitGone(t, h.store, "alpha")
	resp, _ = h.do(t, "GET", "/v1/experiments/alpha", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("get after teardown -> %d, want 404", resp.StatusCode)
	}
}

func TestAPIRejectsBadSpecs(t *testing.T) {
	h := newAPIHarness(t)
	cases := []struct {
		name string
		body []byte
	}{
		{"unknown field", []byte(`{"name":"x","owner":"o","asn":1,"prefixes":["184.164.224.0/24"],"bogus":1}`)},
		{"trailing data", []byte(`{"name":"x","owner":"o","asn":1,"prefixes":["184.164.224.0/24"]}{}`)},
		{"bad name", []byte(`{"name":"Not OK","owner":"o","asn":1,"prefixes":["184.164.224.0/24"]}`)},
		{"no prefixes", []byte(`{"name":"x","owner":"o","asn":1}`)},
		{"not json", []byte(`announce all the things`)},
	}
	for _, c := range cases {
		resp, body := h.do(t, "POST", "/v1/experiments", c.body)
		if resp.StatusCode != 400 {
			t.Errorf("%s -> %d %s, want 400", c.name, resp.StatusCode, body)
		}
	}
}

func TestAPIIndexAndStatus(t *testing.T) {
	h := newAPIHarness(t)
	resp, body := h.do(t, "GET", "/v1/", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "/v1/experiments") {
		t.Fatalf("index -> %d %s", resp.StatusCode, body)
	}
	h.do(t, "POST", "/v1/experiments", testSpec("alpha"))
	waitPhase(t, h.rec, "alpha", PhaseConverged)
	resp, body = h.do(t, "GET", "/v1/status", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"converged"`) {
		t.Fatalf("status -> %d %s", resp.StatusCode, body)
	}
	resp, body = h.do(t, "GET", "/v1/experiments", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"alpha"`) {
		t.Fatalf("list -> %d %s", resp.StatusCode, body)
	}
	resp, body = h.do(t, "GET", "/v1/fleet", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "seattle") {
		t.Fatalf("fleet -> %d %s", resp.StatusCode, body)
	}
}

func TestAPIDeployVerbs(t *testing.T) {
	h := newAPIHarness(t)
	h.do(t, "POST", "/v1/experiments", testSpec("alpha"))

	// The create mirrored a config revision; canary it to one PoP.
	obj, _ := h.store.Get("alpha")
	if obj.ConfigRev == 0 {
		t.Fatal("create did not mirror a config revision")
	}
	resp, body := h.do(t, "POST", "/v1/deploy/canary",
		map[string]any{"revision": obj.ConfigRev, "pops": []string{"seattle"}})
	if resp.StatusCode != 200 {
		t.Fatalf("canary -> %d %s", resp.StatusCode, body)
	}
	resp, body = h.do(t, "POST", "/v1/deploy/promote", map[string]any{"revision": obj.ConfigRev})
	if resp.StatusCode != 200 {
		t.Fatalf("promote -> %d %s", resp.StatusCode, body)
	}
	var result map[string]any
	json.Unmarshal(body, &result)
	deployed, _ := result["deployed"].(map[string]any)
	if len(deployed) != 2 {
		t.Fatalf("promote deployed = %v, want both PoPs", deployed)
	}
	resp, body = h.do(t, "GET", "/v1/deploy", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "created alpha") {
		t.Fatalf("deploy status -> %d %s", resp.StatusCode, body)
	}
	resp, body = h.do(t, "POST", "/v1/deploy/rollback", map[string]any{"revision": obj.ConfigRev})
	if resp.StatusCode != 200 {
		t.Fatalf("rollback -> %d %s", resp.StatusCode, body)
	}
	// Bad revision surfaces as conflict with the deployment truth.
	resp, _ = h.do(t, "POST", "/v1/deploy/promote", map[string]any{"revision": 9999})
	if resp.StatusCode != 409 {
		t.Fatalf("bad promote -> %d, want 409", resp.StatusCode)
	}
}

func TestAPIUnprocessableWhenActuatorRejects(t *testing.T) {
	h := newAPIHarness(t)
	h.act.setFail("validate", fmt.Errorf("no such pop"))
	resp, _ := h.do(t, "POST", "/v1/experiments", testSpec("alpha"))
	if resp.StatusCode != 422 {
		t.Fatalf("rejected create -> %d, want 422", resp.StatusCode)
	}
}

// TestAPIIndexMatchesMux checks that the index and the mux come from the
// same table: every GET path the index lists is mounted, and a path it
// does not list is not.
func TestAPIIndexMatchesMux(t *testing.T) {
	h := newAPIHarness(t)
	h.do(t, "POST", "/v1/experiments", testSpec("alpha"))
	resp, body := h.do(t, "GET", "/v1/", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("index -> %d %s", resp.StatusCode, body)
	}
	var index struct {
		Endpoints []string `json:"endpoints"`
	}
	if err := json.Unmarshal(body, &index); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, ep := range index.Endpoints {
		method, rest, _ := strings.Cut(ep, " ")
		if method != "GET" {
			continue
		}
		path := strings.Fields(rest)[0]
		path, _, _ = strings.Cut(path, "?")
		path, _, _ = strings.Cut(path, "[")
		path = strings.ReplaceAll(path, "{name}", "alpha")
		resp, err := h.srv.Client().Get(h.srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close() // /v1/watch streams; its status is enough
		if resp.StatusCode == http.StatusNotFound {
			t.Errorf("index lists %s but GET %s -> 404", ep, path)
		}
		checked++
	}
	if checked < 8 {
		t.Fatalf("index listed only %d GET endpoints: %v", checked, index.Endpoints)
	}
	if !strings.Contains(string(body), "/v1/echo?x=V") {
		t.Fatalf("index does not list the echo view: %s", body)
	}
	if resp, _ := h.do(t, "GET", "/v1/unlisted", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unlisted path -> %d, want 404", resp.StatusCode)
	}
}

// TestAPIViewErrors checks a view's error mapping: ErrBadQuery is the
// caller's fault (400), anything else the server's (500), both in the
// JSON error envelope.
func TestAPIViewErrors(t *testing.T) {
	h := newAPIHarness(t)
	for _, tc := range []struct {
		query string
		code  int
		want  string
	}{
		{"?x=hello", 200, `"x": "hello"`},
		{"", 400, "want x=V"},
		{"?x=fail", 500, "backend down"},
	} {
		resp, body := h.do(t, "GET", "/v1/echo"+tc.query, nil)
		if resp.StatusCode != tc.code || !strings.Contains(string(body), tc.want) {
			t.Errorf("echo%s -> %d %s, want %d with %q", tc.query, resp.StatusCode, body, tc.code, tc.want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("echo%s Content-Type %q", tc.query, ct)
		}
		if tc.code == 200 {
			continue
		}
		var env apiError
		if err := json.Unmarshal(body, &env); err != nil || env.Error == "" {
			t.Errorf("echo%s body is not the error envelope: %s", tc.query, body)
		}
	}
}
