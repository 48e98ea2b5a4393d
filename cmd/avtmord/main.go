// Command avtmord is the avtmor reduction daemon: an HTTP service that
// accepts netlists (or serialized Systems), reduces them with the
// associated-transform engine, persists the resulting ROM artifacts in
// a content-addressed on-disk store, and simulates stored ROMs on
// demand. Identical concurrent requests coalesce onto one reduction;
// artifacts survive restarts; overload sheds with 429 at a cost-priced
// admission budget instead of piling up work.
//
// Usage:
//
//	avtmord [-addr HOST:PORT] [-store DIR]
//	        [-cache-limit N] [-grace D] [-drain-notice D]
//	        [-node HOST:PORT -peers HOST:PORT,HOST:PORT,...]
//	        [-replicas N] [-join HOST:PORT] [-leave] [-anti-entropy D]
//	        [-cost-budget N] [-quota [KEY=]RATE:BURST]...
//	        [-access-log FILE] [-pprof HOST:PORT]
//
// Operability (docs/OPERATIONS.md has the full runbook): GET /metrics
// serves the Prometheus text exposition. -cost-budget bounds the total
// estimated cost of concurrently admitted work (expensive reduces queue
// behind their own kind while cheap ones keep flowing; the estimate is
// returned in X-Avtmor-Cost). -quota attaches a token bucket to an API key (the
// X-Avtmor-Api-Key header); the form without KEY= sets the default
// bucket shared by unkeyed clients. -access-log appends one JSON line
// per request ("-" for stdout), each carrying the request ID that
// X-Avtmor-Request-Id propagates across the fleet.
//
// -pprof exposes net/http/pprof on its own listener (off by default;
// bind it to loopback): profiling never rides the serving listener, so
// the debug surface cannot leak through whatever exposes the service
// port, and a profile scrape contends with requests only for CPU.
//
// Quickstart against a local daemon:
//
//	avtmord -addr 127.0.0.1:8472 -store ./roms &
//	curl -s --data-binary @circuit.sp 'http://127.0.0.1:8472/v1/reduce?k1=4&k2=2' -o rom.bin
//	key=$(curl -si --data-binary @circuit.sp 'http://127.0.0.1:8472/v1/reduce?k1=4&k2=2' \
//	      -o /dev/null -w '%header{X-Avtmor-Rom-Key}')
//	curl -s -d '{"tEnd":1e-9,"steps":2000,"input":{"kind":"const","values":[1]}}' \
//	      "http://127.0.0.1:8472/v1/roms/$key/simulate"
//	curl -s http://127.0.0.1:8472/metrics
//
// Cluster mode shards the ROM key space over a static fleet with a
// consistent-hash ring: start every node with the same -peers list and
// its own -node entry, point clients at any of them, and each key is
// reduced and stored on exactly one owner (requests entering elsewhere
// are forwarded one hop). When -addr is left at its default, the
// daemon listens on the -node address:
//
//	avtmord -node :8081 -peers :8081,:8082,:8083 -store ./roms-1 &
//	avtmord -node :8082 -peers :8081,:8082,:8083 -store ./roms-2 &
//	avtmord -node :8083 -peers :8081,:8082,:8083 -store ./roms-3 &
//
// With -replicas R > 1 each artifact lives on R distinct ring
// successors (written through synchronously on the primary,
// best-effort async on the followers, repaired by a background
// anti-entropy sweeper), so any single node can die without losing
// availability or recomputing. Membership is dynamic: a new node
// joins a running fleet through any member, and -leave announces a
// graceful departure during drain:
//
//	avtmord -node :8084 -join :8081 -replicas 2 -store ./roms-4 -leave &
//
// See the serve package and DESIGN.md §5/§7 for the endpoint,
// backpressure, and forwarding contracts. SIGINT/SIGTERM drain
// gracefully: /healthz flips to 503 "draining" first, the listener
// stays open for -drain-notice so load balancers and ring peers
// observe the departure, then in-flight work drains within -grace.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"avtmor/internal/quota"
	"avtmor/serve"
)

const defaultAddr = "127.0.0.1:8472"

// quotaFlags collects repeatable -quota [KEY=]RATE:BURST values into a
// serve.Config.Quotas map.
type quotaFlags struct {
	specs map[string]serve.QuotaSpec
}

func (q *quotaFlags) String() string { return fmt.Sprintf("%v", q.specs) }

func (q *quotaFlags) Set(v string) error {
	key := ""
	specText := v
	if i := strings.IndexByte(v, '='); i >= 0 {
		key, specText = v[:i], v[i+1:]
	}
	spec, err := quota.ParseSpec(specText)
	if err != nil {
		return err
	}
	if q.specs == nil {
		q.specs = map[string]serve.QuotaSpec{}
	}
	if _, dup := q.specs[key]; dup {
		return fmt.Errorf("duplicate -quota for key %q", key)
	}
	q.specs[key] = spec
	return nil
}

func main() {
	addr := flag.String("addr", defaultAddr, "listen address (port 0 picks an ephemeral port; defaults to -node in cluster mode)")
	dir := flag.String("store", "avtmord-store", "ROM store directory; \"\" keeps artifacts in memory only")
	cacheLimit := flag.Int("cache-limit", 256, "max ROMs held in memory, LRU-evicted to the store (0 = unbounded)")
	grace := flag.Duration("grace", 10*time.Second, "graceful-shutdown drain window")
	drainNotice := flag.Duration("drain-notice", time.Second, "how long /healthz advertises 503 draining before the listener closes (0 disables)")
	node := flag.String("node", "", "this node's address as it appears in -peers (enables cluster mode)")
	peers := flag.String("peers", "", "comma-separated static peer list of the whole fleet, this node included")
	replicas := flag.Int("replicas", 1, "replication factor R: each artifact lives on R distinct ring successors")
	join := flag.String("join", "", "existing fleet node to join through at startup (dynamic membership; implies -peers of just that seed and -node)")
	leave := flag.Bool("leave", false, "announce departure to the fleet on drain (epoch bump) instead of relying on anti-entropy")
	antiEntropy := flag.Duration("anti-entropy", 0, "anti-entropy sweep interval (0 = default 5s in cluster mode with a store; negative disables)")
	costBudget := flag.Int64("cost-budget", 0, "concurrent admission budget in cost units (0 = default 1024)")
	var quotas quotaFlags
	flag.Var(&quotas, "quota", "token-bucket quota [KEY=]RATE:BURST; repeatable; no KEY= sets the default bucket")
	accessLog := flag.String("access-log", "", "append one JSON access-log line per request to this file (\"-\" = stdout); empty disables")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060); empty disables")
	flag.Parse()
	log.SetPrefix("avtmord: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "avtmord: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	if *join != "" {
		if *node == "" {
			fmt.Fprintln(os.Stderr, "avtmord: -join requires -node (the ring identity this node joins as)")
			flag.Usage()
			os.Exit(2)
		}
		if len(peerList) == 0 {
			// The seed is the whole initial view; the join handshake
			// replaces it with the fleet's real membership (and epoch)
			// right after the listener is up.
			peerList = []string{*join, *node}
		}
	}
	if (len(peerList) > 0) != (*node != "") {
		fmt.Fprintln(os.Stderr, "avtmord: -node and -peers must be set together")
		flag.Usage()
		os.Exit(2)
	}
	addrSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "addr" {
			addrSet = true
		}
	})
	listenAddr := *addr
	if *node != "" && !addrSet {
		listenAddr = *node
	}
	if *node != "" && addrSet && listenAddr != *node {
		// Legitimate when binding wide (-addr 0.0.0.0:8081 -node
		// hostA:8081), a fleet-degrading typo otherwise: peers forward
		// to the ring identity, and if that address does not reach this
		// listener every forward burns a dial timeout and falls back to
		// redundant local compute.
		log.Printf("warning: listening on %s but joining the ring as %s — peers forward to the latter; make sure it routes here", listenAddr, *node)
	}

	var logSink io.Writer
	switch *accessLog {
	case "":
	case "-":
		logSink = os.Stdout
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("opening access log: %v", err)
		}
		defer f.Close()
		logSink = f
	}
	s, err := serve.New(serve.Config{
		StoreDir:            *dir,
		CacheLimit:          *cacheLimit,
		Node:                *node,
		Peers:               peerList,
		Replicas:            *replicas,
		AntiEntropyInterval: *antiEntropy,
		CostBudget:          *costBudget,
		Quotas:              quotas.specs,
		AccessLog:           logSink,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		log.Fatal(err)
	}
	if *pprofAddr != "" {
		// An explicit mux, never http.DefaultServeMux, and never the
		// serving listener: the debug surface stays exactly as reachable
		// as the operator made -pprof, regardless of what any library
		// registers globally or what exposes the service port.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatal(err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("pprof listening on %s", pln.Addr())
		go func() {
			if err := (&http.Server{Handler: pmux}).Serve(pln); err != nil {
				log.Printf("pprof listener closed: %v", err)
			}
		}()
	}
	if len(peerList) > 0 {
		log.Printf("cluster node %s in fleet %v", *node, peerList)
	}
	log.Printf("listening on %s (store %q, cache limit %d)", ln.Addr(), *dir, *cacheLimit)

	srv := &http.Server{Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if *join != "" {
		// Handshake after the listener is up so the fleet's membership
		// broadcast (and the first forwarded request) can reach us.
		jctx, jcancel := context.WithTimeout(ctx, 10*time.Second)
		if err := s.Join(jctx, *join); err != nil {
			log.Printf("warning: joining via %s failed (%v); serving with the seed view, anti-entropy will converge", *join, err)
		} else {
			log.Printf("joined fleet via %s", *join)
		}
		jcancel()
	}

	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	// Drain sequence: advertise the departure first — /healthz answers
	// 503 "draining" while the listener is still accepting — so load
	// balancers and ring peers reroute ahead of connection errors,
	// then stop accepting and let in-flight work finish.
	s.Drain()
	log.Printf("draining (notice %s, grace %s)", *drainNotice, *grace)
	if *leave {
		// Announce the departure while the listener is still open: the
		// epoch bump re-homes this node's key ranges immediately instead
		// of waiting for peers' sweeps to time out against a dead socket.
		// Artifacts stay on disk; surviving owners re-replicate via
		// anti-entropy.
		lctx, lcancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Leave(lctx); err != nil {
			log.Printf("warning: leave announcement failed: %v", err)
		} else {
			log.Printf("left fleet membership")
		}
		lcancel()
	}
	if *drainNotice > 0 {
		time.Sleep(*drainNotice)
	}
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		// Stragglers past the window: closing their connections cancels
		// their request contexts, which unwinds in-flight reductions.
		log.Printf("drain window expired (%v), closing connections", err)
		srv.Close()
	}
	s.Close()
	log.Printf("store flushed, goodbye")
}
