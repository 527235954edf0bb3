package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"sort"

	"repro/internal/ctlplane"
)

// runApplyCommand implements `peering-cli apply [flags] <spec.json>...`:
// the declarative half of the toolkit. Each file holds one experiment
// spec; apply creates it when the server has no such experiment and
// otherwise updates it compare-and-swap style at the server's current
// revision, so a concurrent edit surfaces as a 409 instead of being
// silently clobbered.
func runApplyCommand(args []string) error {
	usage := `usage: peering-cli apply [flags] <spec.json>...

pushes declarative experiment specs to a running peeringd control plane.

flags:
  -addr host:port   peeringd metrics address (default localhost:9179)
  -dry-run          validate server-side without storing`
	fs := flag.NewFlagSet("apply", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:9179", "peeringd metrics address")
	dryRun := fs.Bool("dry-run", false, "validate without storing")
	fs.Usage = func() { fmt.Fprintln(os.Stderr, usage) }
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("peering-cli: apply needs at least one spec file")
	}
	cli := newAPIClient(*addr)
	for _, path := range fs.Args() {
		spec, err := loadSpecFile(path)
		if err != nil {
			return err
		}
		action, rev, err := cli.apply(spec, *dryRun)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if rev > 0 {
			fmt.Printf("%s %s (revision %d)\n", action, spec.Name, rev)
		} else {
			fmt.Printf("%s %s\n", action, spec.Name)
		}
	}
	return nil
}

// runDiffCommand implements `peering-cli diff [flags] <spec.json>...`:
// it renders, per file, how the local spec differs from what the server
// currently holds — the dry inspection before an apply. Exits with
// status 1 (like diff(1)) when any file differs.
func runDiffCommand(args []string) error {
	usage := `usage: peering-cli diff [flags] <spec.json>...

compares local experiment specs against the running control plane.
exit status 1 when any spec differs.

flags:
  -addr host:port   peeringd metrics address (default localhost:9179)`
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:9179", "peeringd metrics address")
	fs.Usage = func() { fmt.Fprintln(os.Stderr, usage) }
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("peering-cli: diff needs at least one spec file")
	}
	cli := newAPIClient(*addr)
	differs := false
	for _, path := range fs.Args() {
		spec, err := loadSpecFile(path)
		if err != nil {
			return err
		}
		remote, _, err := cli.getSpec(spec.Name)
		if err == errNotFound {
			fmt.Printf("%s: experiment %s not on server (apply would create it)\n", path, spec.Name)
			differs = true
			continue
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		lines := diffSpecs(*remote, spec)
		if len(lines) == 0 {
			fmt.Printf("%s: experiment %s is in sync\n", path, spec.Name)
			continue
		}
		differs = true
		fmt.Printf("%s: experiment %s differs:\n", path, spec.Name)
		for _, l := range lines {
			fmt.Println("  " + l)
		}
	}
	if differs {
		os.Exit(1)
	}
	return nil
}

// loadSpecFile reads and strictly validates one spec file, so typos are
// caught locally before any request is made.
func loadSpecFile(path string) (ctlplane.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ctlplane.Spec{}, err
	}
	spec, err := ctlplane.DecodeSpec(data)
	if err != nil {
		return ctlplane.Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// getSpec fetches the server's current spec and revision for an
// experiment, or errNotFound.
func (c *apiClient) getSpec(name string) (*ctlplane.Spec, int64, error) {
	code, body, err := c.do("GET", "/v1/experiments/"+name, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	if code == http.StatusNotFound {
		return nil, 0, errNotFound
	}
	if code != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /v1/experiments/%s: %d %s", name, code, body)
	}
	var view struct {
		Object ctlplane.Object `json:"object"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		return nil, 0, err
	}
	return &view.Object.Spec, view.Object.Revision, nil
}

// apply creates or CAS-updates one spec, returning what happened and
// the resulting revision.
func (c *apiClient) apply(spec ctlplane.Spec, dryRun bool) (string, int64, error) {
	if dryRun {
		code, body, err := c.do("POST", "/v1/experiments", url.Values{"dry_run": {"1"}}, spec)
		if err != nil {
			return "", 0, err
		}
		if code != http.StatusOK {
			return "", 0, fmt.Errorf("dry run: %d %s", code, body)
		}
		return "validated", 0, nil
	}
	remote, rev, err := c.getSpec(spec.Name)
	if err != nil && err != errNotFound {
		return "", 0, err
	}
	if err == errNotFound {
		code, body, err := c.do("POST", "/v1/experiments", nil, spec)
		if err != nil {
			return "", 0, err
		}
		if code != http.StatusCreated && code != http.StatusOK {
			return "", 0, fmt.Errorf("create: %d %s", code, body)
		}
		return "created", decodeRevision(body), nil
	}
	if len(diffSpecs(*remote, spec)) == 0 {
		return "unchanged", rev, nil
	}
	// Compare-and-swap at the revision just read: losing a race to a
	// concurrent writer is a visible 409, not a silent overwrite.
	code, body, err := c.do("PATCH", "/v1/experiments/"+spec.Name, nil,
		map[string]any{"revision": rev, "spec": spec})
	if err != nil {
		return "", 0, err
	}
	if code == http.StatusConflict {
		return "", 0, fmt.Errorf("revision conflict: experiment %s changed on the server since it was read (re-run apply)", spec.Name)
	}
	if code != http.StatusOK {
		return "", 0, fmt.Errorf("update: %d %s", code, body)
	}
	return "updated", decodeRevision(body), nil
}

func decodeRevision(body []byte) int64 {
	var view struct {
		Object struct {
			Revision int64 `json:"revision"`
		} `json:"object"`
	}
	if json.Unmarshal(body, &view) != nil {
		return 0
	}
	return view.Object.Revision
}

// diffSpecs reports the fields where the local spec departs from the
// server's, as "field: server -> local" lines. Both sides are decoded
// through their JSON form so omitted and zero-valued knobs compare
// equal.
func diffSpecs(server, local ctlplane.Spec) []string {
	return diffJSON("", toJSONValue(server), toJSONValue(local))
}

func toJSONValue(v any) any {
	data, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	var out any
	if json.Unmarshal(data, &out) != nil {
		return nil
	}
	return out
}

// diffJSON walks two decoded JSON values and emits one line per leaf
// difference, prefixed with the dotted path.
func diffJSON(path string, server, local any) []string {
	render := func(v any) string {
		if v == nil {
			return "(unset)"
		}
		data, err := json.Marshal(v)
		if err != nil {
			return fmt.Sprintf("%v", v)
		}
		return string(data)
	}
	sm, sok := server.(map[string]any)
	lm, lok := local.(map[string]any)
	if sok && lok {
		keys := map[string]bool{}
		for k := range sm {
			keys[k] = true
		}
		for k := range lm {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		var out []string
		for _, k := range sorted {
			sub := k
			if path != "" {
				sub = path + "." + k
			}
			out = append(out, diffJSON(sub, sm[k], lm[k])...)
		}
		return out
	}
	sa, saok := server.([]any)
	la, laok := local.([]any)
	if saok && laok && len(sa) == len(la) {
		var out []string
		for i := range sa {
			out = append(out, diffJSON(fmt.Sprintf("%s[%d]", path, i), sa[i], la[i])...)
		}
		return out
	}
	if render(server) == render(local) {
		return nil
	}
	if path == "" {
		path = "(spec)"
	}
	return []string{fmt.Sprintf("%s: %s -> %s", path, render(server), render(local))}
}
