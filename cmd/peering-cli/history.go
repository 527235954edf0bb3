package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/url"
	"os"
	"strings"

	"repro/peering"
)

// runHistoryCommand implements `peering-cli history <verb> [flags]`,
// querying the /v1/history/* views of a running `peeringd -history
// -metrics` instance.
func runHistoryCommand(args []string) error {
	usage := `usage: peering-cli history <verb> [flags]

verbs:
  state    routes alive for a prefix at an instant   (-prefix, -at)
  between  a prefix's stored events in a time range  (-prefix, -from, -to)
  diff     routes visible at exactly one of two PoPs (-a, -b, -at)
  stats    store accounting and the vantage table

flags:
  -addr host:port   peeringd metrics address (default localhost:9179)
  -prefix P         exact prefix to query, e.g. 184.164.224.0/24
  -at T             instant, RFC 3339 (default now)
  -from T, -to T    range bounds, RFC 3339 (default all .. now)
  -a POP, -b POP    the two PoPs to diff`
	if len(args) == 0 {
		return fmt.Errorf("%s", usage)
	}
	verb := args[0]
	fs := flag.NewFlagSet("history", flag.ExitOnError)
	addr := fs.String("addr", "localhost:9179", "peeringd metrics address")
	prefix := fs.String("prefix", "", "prefix to query")
	at := fs.String("at", "", "instant (RFC 3339)")
	from := fs.String("from", "", "range start (RFC 3339)")
	to := fs.String("to", "", "range end (RFC 3339)")
	popA := fs.String("a", "", "first PoP to diff")
	popB := fs.String("b", "", "second PoP to diff")
	fs.Usage = func() { fmt.Fprintln(os.Stderr, usage) }
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	q := url.Values{}
	set := func(key, val string) {
		if val != "" {
			q.Set(key, val)
		}
	}
	switch verb {
	case "state":
		set("prefix", *prefix)
		set("at", *at)
	case "between":
		set("prefix", *prefix)
		set("from", *from)
		set("to", *to)
	case "diff":
		set("a", *popA)
		set("b", *popB)
		set("at", *at)
	case "stats":
	default:
		return fmt.Errorf("unknown history verb %q\n%s", verb, usage)
	}

	return newAPIClient(*addr).printJSON("/v1/history/"+verb, q)
}

// queryView answers one of the platform's /v1 views in-process, the
// REPL's counterpart of the remote verbs: args are key=value query
// parameters, and the answer is the JSON a daemon would serve.
func queryView(p *peering.Platform, path string, args []string) string {
	q := url.Values{}
	for _, arg := range args {
		key, val, _ := strings.Cut(arg, "=")
		q.Set(key, val)
	}
	for _, v := range p.Views() {
		if v.Path != path {
			continue
		}
		out, err := v.Get(q)
		if err != nil {
			return err.Error()
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err.Error()
		}
		return string(data)
	}
	return "no view " + path
}
