package ctlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/config"
)

// Deploy bundles the canary/promote/rollback machinery the API's
// /v1/deploy verbs drive: the mirrored revision log plus the deployer
// that pushes a revision to PoPs (§5: "we canary the new configuration
// on a subset of our production fleet").
type Deploy struct {
	Store    *config.Store
	Deployer *config.Deployer
}

// ErrBadQuery marks a View error caused by the request's parameters;
// the API answers it with 400 instead of 500.
var ErrBadQuery = errors.New("bad query")

// View is one read-only platform view, mounted at GET /v1/<Path>. Get
// receives the request's query parameters; an error wrapping
// ErrBadQuery answers 400, any other error 500.
type View struct {
	// Path is relative to /v1/, e.g. "rib" or "history/state".
	Path string
	// Usage follows the path in the endpoint index: the query
	// parameters, if any, then a description.
	Usage string
	Get   func(q url.Values) (any, error)
}

// Server is the control plane's HTTP/JSON surface. Mount on a mux with
// Register; every route lives under /v1/.
type Server struct {
	store  *Store
	rec    *Reconciler
	hub    *Hub
	deploy *Deploy
	views  []View

	mRequests *counterVecish
}

// ServerConfig wires a Server.
type ServerConfig struct {
	Store      *Store
	Reconciler *Reconciler
	Hub        *Hub
	Deploy     *Deploy
	Views      []View
}

// NewServer builds the API server.
func NewServer(cfg ServerConfig) *Server {
	return &Server{
		store:     cfg.Store,
		rec:       cfg.Reconciler,
		hub:       cfg.Hub,
		deploy:    cfg.Deploy,
		views:     cfg.Views,
		mRequests: &counterVecish{m: make(map[string]metric)},
	}
}

// Endpoints returns the mounted endpoint list, the /v1/ (and /) index
// payload.
func (s *Server) Endpoints() []string {
	eps := []string{
		"GET  /v1/                               this index",
		"GET  /v1/experiments                    list experiment objects + status",
		"POST /v1/experiments[?dry_run=1]        create (idempotent; dry_run validates only)",
		"GET  /v1/experiments/{name}             one object + convergence status",
		"PATCH /v1/experiments/{name}            CAS update {revision, spec}",
		"DELETE /v1/experiments/{name}[?revision=N]  tombstone + teardown",
		"GET  /v1/status                         reconciler summary",
	}
	if s.hub != nil {
		eps = append(eps, "GET  /v1/watch?types=a,b                SSE event stream")
	}
	if s.deploy != nil {
		eps = append(eps,
			"GET  /v1/deploy                         revision log + per-PoP deployment",
			"POST /v1/deploy/canary                  {revision, pops}",
			"POST /v1/deploy/promote                 {revision}",
			"POST /v1/deploy/rollback                {revision}",
		)
	}
	for _, v := range s.views {
		eps = append(eps, "GET  /v1/"+v.Path+v.Usage)
	}
	sort.Strings(eps)
	return eps
}

// Register mounts the API on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/{$}", s.count("index", s.handleIndex))
	mux.HandleFunc("GET /v1/experiments", s.count("list", s.handleList))
	mux.HandleFunc("POST /v1/experiments", s.count("create", s.handleCreate))
	mux.HandleFunc("GET /v1/experiments/{name}", s.count("get", s.handleGet))
	mux.HandleFunc("PATCH /v1/experiments/{name}", s.count("update", s.handleUpdate))
	mux.HandleFunc("DELETE /v1/experiments/{name}", s.count("delete", s.handleDelete))
	mux.HandleFunc("GET /v1/status", s.count("status", s.handleStatus))
	if s.hub != nil {
		mux.Handle("GET /v1/watch", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.mRequests.inc("watch")
			s.hub.ServeHTTP(w, r)
		}))
	}
	if s.deploy != nil {
		mux.HandleFunc("GET /v1/deploy", s.count("deploy-status", s.handleDeployStatus))
		mux.HandleFunc("POST /v1/deploy/canary", s.count("canary", s.handleDeployVerb("canary")))
		mux.HandleFunc("POST /v1/deploy/promote", s.count("promote", s.handleDeployVerb("promote")))
		mux.HandleFunc("POST /v1/deploy/rollback", s.count("rollback", s.handleDeployVerb("rollback")))
	}
	for _, v := range s.views {
		mux.HandleFunc("GET /v1/"+v.Path, s.count(v.Path, serveView(v.Get)))
	}
}

// serveView answers a View's Get as JSON, mapping ErrBadQuery to 400
// and any other error to 500.
func serveView(get func(url.Values) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err := get(r.URL.Query())
		switch {
		case errors.Is(err, ErrBadQuery):
			writeError(w, http.StatusBadRequest, err)
		case err != nil:
			writeError(w, http.StatusInternalServerError, err)
		default:
			writeJSON(w, http.StatusOK, v)
		}
	}
}

// count wraps a handler with the per-endpoint request counter.
func (s *Server) count(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mRequests.inc(name)
		h(w, r)
	}
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// statusFor maps store errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrConflict):
		return http.StatusConflict
	case errors.Is(err, ErrDeleting):
		return http.StatusConflict
	case errors.Is(err, ErrStoreFailed):
		// Fail-closed after a durable-log write error: the daemon must
		// restart and recover before accepting mutations again.
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// objectView is an object plus its convergence status, the shape every
// experiment endpoint returns.
type objectView struct {
	Object Object        `json:"object"`
	Status *ObjectStatus `json:"status,omitempty"`
}

func (s *Server) view(obj Object) objectView {
	v := objectView{Object: obj}
	if s.rec != nil {
		if st, ok := s.rec.ObjectStatusFor(obj.Spec.Name); ok {
			v.Status = &st
		}
	}
	return v
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Service   string   `json:"service"`
		Revision  int64    `json:"revision"`
		Endpoints []string `json:"endpoints"`
	}{"peering-ctlplane", s.store.Revision(), s.Endpoints()})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	objs := s.store.List()
	out := make([]objectView, 0, len(objs))
	for _, obj := range objs {
		out = append(out, s.view(obj))
	}
	writeJSON(w, http.StatusOK, struct {
		Revision    int64        `json:"revision"`
		Experiments []objectView `json:"experiments"`
	}{s.store.Revision(), out})
}

// maxBodyBytes bounds request bodies.
const maxBodyBytes = maxSpecBytes + 4096

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("ctlplane: %v", err))
		return nil, false
	}
	return body, true
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	spec, err := DecodeSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	dryRun := r.FormValue("dry_run") != "" && r.FormValue("dry_run") != "0"
	if s.rec != nil {
		// Platform-level validation (PoPs exist, no allocation clash)
		// runs on every create so errors surface synchronously instead
		// of as reconciler backoff.
		if err := s.rec.act.Validate(spec); err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
	}
	if dryRun {
		writeJSON(w, http.StatusOK, struct {
			Valid  bool `json:"valid"`
			DryRun bool `json:"dry_run"`
			Spec   Spec `json:"spec"`
		}{true, true, spec})
		return
	}
	obj, created, err := s.store.Create(spec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	status := http.StatusOK // idempotent re-POST
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, s.view(obj))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	obj, err := s.store.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, s.view(obj))
}

// updateRequest is the PATCH body: the caller's revision (CAS gate) and
// the full replacement spec.
type updateRequest struct {
	Revision int64           `json:"revision"`
	Spec     json.RawMessage `json:"spec"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req updateRequest
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: bad update request: %v", err))
		return
	}
	if req.Revision == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: update requires the current revision (CAS)"))
		return
	}
	if len(req.Spec) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: update requires a spec"))
		return
	}
	spec, err := DecodeSpec(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.rec != nil {
		if err := s.rec.act.Validate(spec); err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
	}
	obj, err := s.store.Update(name, req.Revision, spec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, s.view(obj))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var rev int64
	if raw := r.FormValue("revision"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: bad revision: %v", err))
			return
		}
		rev = n
	}
	obj, err := s.store.Delete(name, rev)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.view(obj))
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	var statuses []ObjectStatus
	if s.rec != nil {
		statuses = s.rec.Status()
	}
	writeJSON(w, http.StatusOK, struct {
		Revision    int64          `json:"revision"`
		Subscribers int            `json:"watch_subscribers"`
		Objects     []ObjectStatus `json:"objects"`
	}{s.store.Revision(), s.subscribers(), statuses})
}

func (s *Server) subscribers() int {
	if s.hub == nil {
		return 0
	}
	return s.hub.Subscribers()
}

// deployRequest is the body of the deploy verbs.
type deployRequest struct {
	Revision int      `json:"revision"`
	PoPs     []string `json:"pops,omitempty"`
}

func (s *Server) handleDeployVerb(verb string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		var req deployRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: bad deploy request: %v", err))
			return
		}
		if req.Revision <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: deploy requires a positive revision"))
			return
		}
		var err error
		result := map[string]any{"verb": verb, "revision": req.Revision}
		switch verb {
		case "canary":
			if len(req.PoPs) == 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: canary requires pops"))
				return
			}
			err = s.deploy.Deployer.Canary(req.Revision, req.PoPs)
			result["pops"] = req.PoPs
		case "promote":
			err = s.deploy.Deployer.Promote(req.Revision)
		case "rollback":
			var newRev int
			newRev, err = s.deploy.Store.Rollback(req.Revision)
			result["new_revision"] = newRev
		}
		if err != nil {
			// A failed canary/promote leaves a partial rollout; surface
			// the per-PoP truth alongside the error.
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":    err.Error(),
				"verb":     verb,
				"revision": req.Revision,
				"deployed": s.deploy.Deployer.Deployed(),
			})
			return
		}
		deployed := s.deploy.Deployer.Deployed()
		result["deployed"] = deployed
		newRev, _ := result["new_revision"].(int)
		s.store.LogDeploy(verb, req.Revision, req.PoPs, newRev, deployed)
		if s.hub != nil {
			s.hub.Publish(StreamDeploy, result)
		}
		writeJSON(w, http.StatusOK, result)
	}
}

func (s *Server) handleDeployStatus(w http.ResponseWriter, _ *http.Request) {
	_, latest := s.deploy.Store.Latest()
	writeJSON(w, http.StatusOK, struct {
		Latest   int            `json:"latest_revision"`
		Notes    map[int]string `json:"notes"`
		Deployed map[string]int `json:"deployed"`
	}{latest, s.deploy.Store.Notes(), s.deploy.Deployer.Deployed()})
}
