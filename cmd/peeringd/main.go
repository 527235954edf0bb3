// Command peeringd runs a complete simulated Peering platform: a
// synthetic Internet, a configurable set of PoPs with IXP and transit
// interconnections, a backbone mesh, and the management workflow. It
// prints the §4.2-style footprint summary and, with -watch, periodic
// status lines. With -metrics it serves the platform's plain-text
// metric exposition at /metrics for peering-cli or any scraper, plus the
// declarative control plane under /v1 (experiment CRUD, deploy verbs,
// the /v1/watch SSE event stream, and the read-only views: fleet, RIB
// and health, catchment and TE status with -te, history queries with
// -history) and a JSON index of every mounted endpoint at /.
// SIGINT/SIGTERM drain the API server — in-flight requests and watch
// streams — before the platform shuts down. The convergence-safety
// layer is opt-in: -damping enables RFC 2439 route-flap damping, -mrai
// paces neighbor UPDATE batches, and -guard runs the overload watchdog
// whose per-PoP health states appear in the -watch output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/guard"
	"repro/internal/history"
	"repro/internal/inet"
	"repro/internal/ixp"
	"repro/internal/rpki"
	"repro/internal/telemetry"
	"repro/peering"
)

func main() {
	pops := flag.Int("pops", 3, "number of PoPs")
	edges := flag.Int("edges", 200, "edge ASes in the synthetic Internet")
	members := flag.Int("ixp-members", 40, "members of the main exchange")
	bilateral := flag.Int("ixp-bilateral", 6, "bilateral sessions at the main exchange")
	routes := flag.Int("routes-per-neighbor", 25, "routes announced per neighbor")
	watch := flag.Duration("watch", 0, "keep running and print status at this interval (0 = exit after setup)")
	listen := flag.String("listen", "", "accept remote experiment tunnels on this TCP address (e.g. :1790)")
	metrics := flag.String("metrics", "", "serve the plain-text metrics exposition on this HTTP address (e.g. :9179)")
	chaosSpec := flag.String("chaos", "", `enable deterministic fault injection and session resilience: comma-separated spec of seed=N, rate=F (faults/min), duration=D, kinds=reset|stall-read|stall-write|corrupt|delay|link-flap|partition, classes=neighbor|experiment|tunnel|backbone|rtr (e.g. "seed=42,rate=6,kinds=reset|link-flap")`)
	rpkiOn := flag.Bool("rpki", false, "enable RPKI: sign every topology-originated prefix with a ROA, sync each PoP over RTR, and reject Invalid experiment announcements")
	rovFraction := flag.Float64("rov", 0.5, "fraction of topology ASes performing route origin validation (with -rpki)")
	dampingHalfLife := flag.Duration("damping", 0, "enable RFC 2439 route-flap damping with this half-life (e.g. 15s; 0 = off)")
	mrai := flag.Duration("mrai", 0, "pace neighbor UPDATE batches at this minimum route advertisement interval (0 = off)")
	guardOn := flag.Bool("guard", false, "run the overload watchdog: healthy/degraded/shedding states per PoP with load shedding")
	historyDir := flag.String("history", "", "record every route event into a durable segment log under this directory, enabling time-travel queries (/v1/history/* with -metrics, peering-cli history)")
	historyRetention := flag.Duration("history-retention", 0, "delete sealed history segments older than this window (0 = keep everything)")
	stateDir := flag.String("state-dir", "", "persist the control plane's desired state (WAL + snapshot) under this directory; on startup the store is recovered from it, so experiment specs and deploy revisions survive a crash (with -metrics)")
	tePrefix := flag.String("te", "", "run closed-loop traffic engineering on this anycast prefix (e.g. 184.164.224.0/24): announce it at every PoP, resolve the catchment of -clients weighted clients, and steer per-PoP load to equal targets; serves /v1/catchment and /v1/te with -metrics (peering-cli catchment|te)")
	teClients := flag.Int("clients", 100000, "weighted clients placed across the synthetic Internet for -te catchment resolution")
	flag.Parse()

	var teAnycast netip.Prefix
	if *tePrefix != "" {
		p, err := netip.ParsePrefix(*tePrefix)
		if err != nil {
			log.Fatalf("bad -te prefix: %v", err)
		}
		teAnycast = p
	}

	var injector *chaos.Injector
	if *chaosSpec != "" {
		inj, err := parseChaosSpec(*chaosSpec)
		if err != nil {
			log.Fatalf("bad -chaos spec: %v", err)
		}
		injector = inj
	}

	cfg := inet.DefaultGenConfig()
	cfg.Edges = *edges
	topo := inet.Generate(cfg)
	if err := inet.Validate(topo); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthetic Internet: %d ASes (types: %v)\n", topo.Len(), topo.TypeCounts())

	var roas *rpki.Store
	if *rpkiOn {
		// Trust anchor: one ROA per topology-originated prefix, so every
		// legitimate route validates and any sub-prefix or wrong-origin
		// hijack comes out Invalid.
		roas = rpki.NewStore()
		for _, asn := range topo.ASNs() {
			for _, prefix := range topo.AS(asn).Originated {
				roas.Add(rpki.ROA{Prefix: prefix, ASN: asn})
			}
		}
	}

	pcfg := peering.PlatformConfig{ASN: 47065, Topology: topo, Chaos: injector, RPKI: roas, NeighborMRAI: *mrai}
	if teAnycast.IsValid() {
		pcfg.TE = &peering.TEConfig{Prefix: teAnycast, Clients: *teClients, Seed: 47065}
	}
	var hist *history.Store
	if *historyDir != "" {
		var err error
		hist, err = history.Open(history.Config{
			Dir: *historyDir, Retention: *historyRetention, Logf: log.Printf,
		})
		if err != nil {
			log.Fatalf("opening history store: %v", err)
		}
		pcfg.History = hist
		fmt.Printf("history: recording route events under %s (retention %v)\n", *historyDir, *historyRetention)
	}
	if *dampingHalfLife > 0 {
		pcfg.Damping = &guard.DampingConfig{HalfLife: *dampingHalfLife}
		fmt.Printf("damping: RFC 2439 flap damping on (half-life %s)\n", *dampingHalfLife)
	}
	if *guardOn {
		pcfg.Guard = peering.DefaultGuardConfig()
		pcfg.Guard.Health.Logf = log.Printf
		fmt.Println("guard: overload watchdog on (healthy/degraded/shedding)")
	}
	platform := peering.NewPlatform(pcfg)
	defer platform.StopGuard()
	if roas != nil {
		deployed := platform.DeployROV(*rovFraction, 47065)
		fmt.Printf("rpki: %d ROAs signed; %d/%d ASes validate origins\n", roas.Len(), deployed, topo.Len())
	}

	// The main exchange, AMS-IX style.
	x := ixp.New("AMS-IX", 64700, topo, netip.MustParsePrefix("80.249.208.0/21"))
	for i := 0; i < *members; i++ {
		if _, err := x.AddMember(uint32(10000+i), i < *bilateral); err != nil {
			log.Fatal(err)
		}
	}

	var popList []*peering.PoP
	for i := 0; i < *pops; i++ {
		name := fmt.Sprintf("pop%02d", i)
		pop, err := platform.AddPoP(peering.PoPConfig{
			Name:      name,
			RouterID:  netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)}),
			LocalPool: netip.MustParsePrefix(fmt.Sprintf("127.%d.0.0/16", 65+i)),
			ExpLAN:    netip.MustParsePrefix(fmt.Sprintf("100.%d.0.0/24", 65+i)),
		})
		if err != nil {
			log.Fatal(err)
		}
		// Every PoP gets a transit; the first also joins the exchange.
		if _, err := pop.ConnectTransit(uint32(1000+i), *routes); err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			if err := pop.ConnectIXP(x, 2, *routes); err != nil {
				log.Fatal(err)
			}
		}
		popList = append(popList, pop)
	}
	// Full backbone mesh.
	for i := 0; i < len(popList); i++ {
		for j := i + 1; j < len(popList); j++ {
			if err := platform.ConnectBackbone(popList[i], popList[j],
				400e6, time.Duration(20+10*(i+j))*time.Millisecond); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Wait for convergence: every router has routes from its neighbors.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		total := 0
		for _, pop := range popList {
			total += pop.Router.RouteCount()
		}
		if total > 0 {
			time.Sleep(300 * time.Millisecond)
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	fmt.Printf("\n%-8s %10s %10s %10s\n", "pop", "neighbors", "routes", "forwarded")
	for _, pop := range popList {
		fmt.Printf("%-8s %10d %10d %10d\n", pop.Name,
			len(pop.Router.Neighbors()), pop.Router.RouteCount(), pop.Router.Forwarded.Load())
	}
	total, bi := x.MemberCounts()
	fmt.Printf("\nAMS-IX: %d members (%d bilateral)\n", total, bi)
	fmt.Printf("backbone links: %d\n", len(platform.BackboneLinks()))
	fmt.Println("platform is up; submit experiment proposals via the peering API")

	if injector != nil {
		fmt.Printf("chaos: injecting faults (%s); sessions run supervised with graceful restart\n", *chaosSpec)
		go injector.Run()
		defer injector.Stop()
	}

	var te *peering.TEController
	if teAnycast.IsValid() {
		var err error
		te, err = setupTE(platform, popList, teAnycast)
		if err != nil {
			log.Fatalf("te setup: %v", err)
		}
		fmt.Printf("te: steering %s across %d PoPs (%d weighted clients); inspect /v1/te\n",
			teAnycast, len(popList), *teClients)
		go func() {
			res, err := te.Run()
			if err != nil {
				log.Printf("te: %v", err)
				return
			}
			if res.Converged {
				fmt.Printf("te: converged in %d rounds\n", len(res.Rounds))
			} else if res.Certificate != nil {
				fmt.Printf("te: infeasible after %d rounds: %s\n", len(res.Rounds), res.Certificate.Reason)
			}
		}()
	}

	// Shutdown is signal-driven: SIGINT/SIGTERM drain the API server
	// (in-flight requests and SSE watch streams) before the platform
	// comes down.
	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, os.Interrupt, syscall.SIGTERM)

	serving := false
	var srv *http.Server
	var cp *peering.ControlPlane
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", serveMetrics)
		cp, err = peering.NewControlPlane(platform, peering.ControlPlaneConfig{
			Logf:     log.Printf,
			StateDir: *stateDir,
		})
		if err != nil {
			log.Fatal(err)
		}
		cp.API.Register(mux)
		endpoints := append([]string{"/metrics"}, cp.API.Endpoints()...)
		// The root serves a JSON index of everything mounted; any other
		// unregistered path 404s (the "GET /{$}" pattern matches "/"
		// exactly instead of swallowing the whole tree).
		mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(map[string]any{"service": "peeringd", "endpoints": endpoints})
		})
		fmt.Printf("serving API on http://%s/ (metrics at /metrics, control plane at /v1)\n", ln.Addr())
		srv = &http.Server{Handler: mux}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Fatal(err)
			}
		}()
		serving = true
	}

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("accepting remote experiment tunnels on %s (Client.DialTCP)\n", ln.Addr())
		go func() {
			if err := platform.ListenAndServe(ln); err != nil {
				log.Fatal(err)
			}
		}()
		serving = true
	}

	// stop drains everything in dependency order: close the control
	// plane first (ends the reconciler and every SSE stream), then let
	// the HTTP server finish in-flight requests, then the platform.
	stop := func() {
		fmt.Println("\nshutting down: draining API connections")
		if cp != nil {
			cp.Close()
		}
		if srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := srv.Shutdown(ctx); err != nil {
				log.Printf("http shutdown: %v", err)
			}
			cancel()
		}
		platform.Close()
	}

	if *watch <= 0 {
		if serving {
			<-shutdown
			stop()
		}
		return
	}
	tick := time.NewTicker(*watch)
	defer tick.Stop()
	for {
		select {
		case <-shutdown:
			stop()
			return
		case <-tick.C:
		}
		fmt.Fprintf(os.Stdout, "%s ", time.Now().Format(time.TimeOnly))
		for _, pop := range popList {
			if *guardOn {
				fmt.Printf("%s(routes=%d fwd=%d health=%s) ", pop.Name,
					pop.Router.RouteCount(), pop.Router.Forwarded.Load(), platform.PoPHealth(pop.Name))
			} else {
				fmt.Printf("%s(routes=%d fwd=%d) ", pop.Name, pop.Router.RouteCount(), pop.Router.Forwarded.Load())
			}
		}
		if hist != nil {
			st := hist.Stats()
			fmt.Printf("history(stored=%d deduped=%d dropped=%d segs=%d) ",
				st.Stored, st.Deduped, st.Dropped, st.Segments)
		}
		fmt.Println()
	}
}

// parseChaosSpec builds a fault injector from the -chaos flag, a
// comma-separated list of key=value pairs: seed=N, rate=F (faults per
// minute), duration=D (per-fault duration, Go syntax), and
// "|"-separated kinds= and classes= filters.
func parseChaosSpec(spec string) (*chaos.Injector, error) {
	cfg := chaos.Config{Seed: 1, Rate: 6, Logf: log.Printf}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("%q: want key=value", field)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("seed: %v", err)
			}
			cfg.Seed = n
		case "rate":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("rate: %v", err)
			}
			cfg.Rate = f
		case "duration":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("duration: %v", err)
			}
			cfg.DefaultDuration = d
		case "kinds":
			for _, name := range strings.Split(val, "|") {
				k, err := chaos.ParseKind(name)
				if err != nil {
					return nil, err
				}
				cfg.Kinds = append(cfg.Kinds, k)
			}
		case "classes":
			cfg.Classes = append(cfg.Classes, strings.Split(val, "|")...)
		default:
			return nil, fmt.Errorf("unknown key %q (want seed, rate, duration, kinds, classes)", key)
		}
	}
	return chaos.New(cfg), nil
}

// serveMetrics writes the default registry's exposition, the format
// peering-cli's metrics verb and any Prometheus-style scraper consume.
func serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.Default().WriteText(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
