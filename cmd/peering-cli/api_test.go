package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestAPIClientBaseURL(t *testing.T) {
	for _, tc := range []struct{ addr, want string }{
		{"host:9179", "http://host:9179"},
		{"http://host:9179", "http://host:9179"},
		{"http://host:9179/", "http://host:9179"},
		{"http://host:9179//", "http://host:9179"},
		{"https://host:9179", "https://host:9179"},
		{"https://host:9179/", "https://host:9179"},
	} {
		if got := newAPIClient(tc.addr).base; got != tc.want {
			t.Errorf("newAPIClient(%q).base = %q, want %q", tc.addr, got, tc.want)
		}
	}
}

func TestAPIClientErrorNamesStatusAndBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error": "bad query: want prefix=P"}`, http.StatusBadRequest)
	}))
	defer srv.Close()
	_, err := newAPIClient(srv.URL).get("/v1/history/state", nil)
	if err == nil {
		t.Fatal("400 answer returned no error")
	}
	for _, want := range []string{"400", "Bad Request", "want prefix=P", "/v1/history/state"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if _, err := newAPIClient(srv.URL).stream("/v1/watch", nil); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("stream of a 400 answer -> %v, want an error naming the status", err)
	}
}

// TestRemoteVerbsUseV1Paths runs the remote query verbs against a fake
// daemon and checks the request each one makes.
func TestRemoteVerbsUseV1Paths(t *testing.T) {
	var (
		mu   sync.Mutex
		seen []string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Method+" "+r.URL.RequestURI())
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}\n"))
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	for _, tc := range []struct {
		run  func([]string) error
		args []string
		want string
	}{
		{runHistoryCommand, []string{"stats", "-addr", addr}, "GET /v1/history/stats"},
		{runHistoryCommand, []string{"state", "-addr", addr, "-prefix", "184.164.224.0/24", "-at", "2026-01-02T03:04:05Z"},
			"GET /v1/history/state?at=2026-01-02T03%3A04%3A05Z&prefix=184.164.224.0%2F24"},
		{runHistoryCommand, []string{"between", "-addr", addr, "-prefix", "184.164.224.0/24"},
			"GET /v1/history/between?prefix=184.164.224.0%2F24"},
		{runHistoryCommand, []string{"diff", "-addr", srv.URL + "/", "-a", "pop00", "-b", "pop01"},
			"GET /v1/history/diff?a=pop00&b=pop01"},
		{runCatchmentCommand, []string{"-addr", addr}, "GET /v1/catchment"},
		{runCatchmentCommand, []string{"-addr", addr, "-prefix", "184.164.225.0/24"},
			"GET /v1/catchment?prefix=184.164.225.0%2F24"},
		{runTECommand, []string{"status", "-addr", addr}, "GET /v1/te"},
	} {
		mu.Lock()
		seen = nil
		mu.Unlock()
		if err := tc.run(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		mu.Lock()
		got := strings.Join(seen, ", ")
		mu.Unlock()
		if got != tc.want {
			t.Errorf("%v requested %q, want %q", tc.args, got, tc.want)
		}
	}
}
