package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/url"
	"os"
	"strings"
	"time"
)

// runWatchCommand implements `peering-cli watch [flags]`: it subscribes
// to the /v1/watch SSE stream of a running `peeringd -metrics` instance
// and renders each event as one line until interrupted or the server
// closes the stream. Unlike the query verbs the stream has no overall
// deadline — it is a live tail, not a scrape — but a daemon that never
// answers the request still fails it (see newAPIClient).
func runWatchCommand(args []string) error {
	usage := `usage: peering-cli watch [flags]

streams the control plane's live event feed (SSE) until interrupted.

flags:
  -addr host:port   peeringd metrics address (default localhost:9179)
  -types a,b,c      event types to subscribe to: telemetry, reconcile,
                    health, store, deploy (default: all)
  -raw              print raw SSE frames instead of one line per event`
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:9179", "peeringd metrics address")
	types := fs.String("types", "", "comma-separated event types (empty = all)")
	raw := fs.Bool("raw", false, "print raw SSE frames")
	fs.Usage = func() { fmt.Fprintln(os.Stderr, usage) }
	if err := fs.Parse(args); err != nil {
		return err
	}

	var q url.Values
	if *types != "" {
		q = url.Values{"types": {*types}}
	}
	resp, err := newAPIClient(*addr).stream("/v1/watch", q)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	fmt.Fprintf(os.Stderr, "watching %s (ctrl-c to stop)\n", resp.Request.URL)

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if *raw {
			fmt.Println(line)
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		fmt.Println(renderWatchEvent(strings.TrimPrefix(line, "data: ")))
	}
	return sc.Err()
}

// renderWatchEvent turns one SSE data payload into a compact log line:
// timestamp, sequence, type, then the event body re-marshalled without
// the envelope. Undecodable payloads pass through verbatim.
func renderWatchEvent(payload string) string {
	var ev struct {
		Seq  uint64          `json:"seq"`
		Type string          `json:"type"`
		Time time.Time       `json:"time"`
		Data json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal([]byte(payload), &ev); err != nil || ev.Type == "" {
		return payload
	}
	return fmt.Sprintf("%s %-9s #%-5d %s",
		ev.Time.Format("15:04:05.000"), ev.Type, ev.Seq, compactJSON(ev.Data))
}

// compactJSON renders raw JSON on one line, falling back to the input.
func compactJSON(raw json.RawMessage) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	return buf.String()
}
