// Command pomsimd serves simulations over HTTP: clients POST a scenario
// spec JSON (any registered family) and stream the sample rows back as
// NDJSON, or drive the asynchronous job API (submit / status / cancel /
// fetch). Completed runs land in an archive-backed result cache keyed
// by the spec's canonical hash, so a repeated spec is answered from
// disk, byte-identical to the fresh run, without occupying a worker.
// Admission control (-admit token-bucket) sheds load with typed 429s
// before work is queued. See internal/serve for the runtime and
// ARCHITECTURE.md ("Service mode") for the request lifecycle.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/serve"
)

// sysClock adapts the wall clock to serve.Clock. This is the one place
// in the service where real time enters; everything under internal/serve
// derives every decision from the injected clock.
type sysClock struct{}

//pomvet:allow wallclock the serve boundary: the single injection point of real time into the service
func (sysClock) Now() time.Time { return time.Now() }

// Connection timeouts. A client gets readHeaderTimeout to send its
// request headers and an idle keep-alive connection is closed after
// idleTimeout, so stalled or abandoned connections cannot pile up. There
// is no write timeout: an NDJSON run streams for as long as it runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the service's HTTP server on addr.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	var (
		addr     = flag.String("addr", "localhost:8432", "listen address")
		workers  = flag.Int("workers", 2, "simulation worker fleet size")
		queue    = flag.Int("queue", 16, "job queue depth (admitted but not yet running)")
		cacheDir = flag.String("cache", "", "result-cache archive directory (required)")
		admit    = flag.String("admit", "always", "admission policy: always | token-bucket")
		burst    = flag.Int("burst", 8, "token-bucket burst (with -admit token-bucket)")
		rate     = flag.Float64("rate", 1, "token-bucket refill rate in jobs/second (with -admit token-bucket)")
		snapTTL  = flag.Duration("snapshot-ttl", time.Second, "state snapshot staleness bound")
		codecStr = flag.String("archive-codec", "delta", "record codec for cached shards: delta | raw")
	)
	flag.Parse()

	if *cacheDir == "" {
		log.Fatal("pomsimd: -cache DIR is required")
	}
	codec, err := archive.ParseCodec(*codecStr)
	if err != nil {
		log.Fatal(err)
	}
	var admission serve.Admission
	switch *admit {
	case "always":
		admission = serve.AlwaysAdmit{}
	case "token-bucket":
		if *burst < 1 || *rate < 0 {
			log.Fatalf("pomsimd: bad token bucket: burst=%d rate=%v", *burst, *rate)
		}
		admission = serve.NewTokenBucket(*burst, *rate)
	default:
		log.Fatalf("pomsimd: unknown admission policy %q (always | token-bucket)", *admit)
	}

	srv, err := serve.New(serve.Config{
		Workers:     *workers,
		QueueDepth:  *queue,
		Admission:   admission,
		Clock:       sysClock{},
		CacheDir:    *cacheDir,
		Codec:       codec,
		SnapshotTTL: *snapTTL,
	})
	if err != nil {
		log.Fatal(err)
	}

	hs := newHTTPServer(*addr, srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx) // best effort; Close below is the backstop
	}()

	fmt.Printf("pomsimd: serving on http://%s (workers=%d queue=%d admit=%s cache=%s)\n",
		*addr, *workers, *queue, *admit, *cacheDir)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = srv.Close()
		log.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
}
