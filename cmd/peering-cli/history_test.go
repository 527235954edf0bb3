package main

import (
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/telemetry"
	"repro/peering"
)

// TestREPLHistoryUsesViews checks that the REPL's history verb answers
// through the same views a daemon serves under /v1/history.
func TestREPLHistoryUsesViews(t *testing.T) {
	hist, err := history.Open(history.Config{Dir: t.TempDir(), Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	p := peering.NewPlatform(peering.PlatformConfig{ASN: 47065, History: hist})
	defer p.Close()
	for _, tc := range []struct {
		path string
		args []string
		want string
	}{
		{"history/stats", nil, `"vantages"`},
		{"history/state", []string{"prefix=184.164.224.0/24", "at=2026-01-02T03:04:05Z"}, "[]"},
		{"history/state", nil, "bad query: want prefix=P"},
		{"history/between", []string{"prefix=184.164.224.0/24", "from=yesterday"}, "want RFC 3339"},
		{"history/diff", []string{"a=amsix"}, "want b=VALUE"},
		{"history/nope", nil, "no view history/nope"},
	} {
		if got := queryView(p, tc.path, tc.args); !strings.Contains(got, tc.want) {
			t.Errorf("queryView(%s, %v) = %q, want it to contain %q", tc.path, tc.args, got, tc.want)
		}
	}
}
