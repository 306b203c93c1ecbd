// Command gcsimd is the crash-safe sweep service: a long-running
// daemon that accepts sweep jobs over HTTP, schedules their cells
// across a bounded worker pool, and persists every cell outcome to an
// append-only, CRC-checked, fsync-on-commit WAL. Because each cell's
// report is a pure function of its config, results are content-
// addressed facts: identical cells are deduped across jobs and served
// from the store without re-running, and a daemon killed mid-sweep
// (even kill -9) resumes on restart by re-enqueuing exactly the cells
// whose facts are missing — the resumed job's results are bit-
// identical to an uninterrupted run.
//
//	gcsimd -addr 127.0.0.1:7333 -data ./gcsimd-data
//	gcsim sweep -daemon http://127.0.0.1:7333 -n 256,1024
//
// API: POST /jobs (a jobd.SweepSpec; 202 on admission, 200 if the job
// already exists, 429 + Retry-After past the queue cap, 503 while
// draining), GET /jobs, GET /jobs/{id}, GET /jobs/{id}/results,
// GET /healthz. On SIGTERM/SIGINT the daemon stops admitting, gives
// in-flight cells -drain-timeout to finish (then abandons them at the
// next simulation slice — unfinished cells are simply re-run after the
// next start), syncs the store, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gcs/internal/jobd"
	"gcs/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7333", "HTTP listen address")
		dataDir      = flag.String("data", "gcsimd-data", "durable result store (WAL) directory")
		workers      = flag.Int("workers", 0, "cell worker pool size (0 = GOMAXPROCS)")
		queueCap     = flag.Int("queue-cap", 4096, "max cells admitted but unfinished; past it, submissions get 429")
		cellTimeout  = flag.Duration("cell-timeout", 10*time.Minute, "per-cell execution deadline")
		retries      = flag.Int("retries", 2, "re-executions of a failed cell before storing a terminal error fact")
		segBytes     = flag.Int64("seg-bytes", 4<<20, "WAL segment rotation threshold (bytes)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace for in-flight cells on SIGTERM before abandoning them")
	)
	flag.Parse()
	log.SetPrefix("gcsimd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	repo, err := store.OpenWAL(*dataDir, store.WALOptions{SegmentBytes: *segBytes})
	if err != nil {
		log.Fatal(err)
	}
	st := repo.Stats()
	log.Printf("store %s: %d segment(s), %d record(s) replayed, %d byte(s) of torn tail recovered",
		*dataDir, st.Segments, st.RecordsReplayed, st.TruncatedBytes)

	d, err := jobd.New(jobd.Config{
		Repo:        repo,
		Workers:     *workers,
		QueueCap:    *queueCap,
		CellTimeout: *cellTimeout,
		MaxRetries:  *retries,
		Logf:        log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Re-admit interrupted jobs before serving: their stored cells are
	// skipped, their missing cells re-enqueued. Per-job resume failures
	// are logged, not fatal — one corrupt spec must not hold the daemon
	// down.
	if err := d.Resume(); err != nil {
		log.Printf("resume: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: d.Handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}()
	log.Printf("serving on http://%s (data %s, drain grace %s)", ln.Addr(), *dataDir, *drainTimeout)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	s := <-sig
	log.Printf("%v: draining (grace %s)", s, *drainTimeout)
	// Drain first so status endpoints stay up while in-flight cells
	// finish; it stops admission, checkpoints finished work, and syncs.
	if err := d.Drain(*drainTimeout); err != nil {
		log.Printf("drain: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := repo.Close(); err != nil {
		log.Printf("close store: %v", err)
	}
	log.Print("drained; exiting")
}
