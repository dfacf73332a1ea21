// Command coherad runs a content site daemon: it loads a generated
// supplier catalog into a local engine and publishes it over HTTP for
// remote federation (see internal/remote). Point coheraql at it with
// -attach, or federate several coherad processes together.
//
// With -wal-dir the catalog is durable: every mutation is written
// ahead to a per-site log, periodic checkpoints bound replay, and a
// kill -9 restart recovers the exact acknowledged state.
//
//	coherad -addr :8401 -supplier 3 -items 25
//	coherad -addr :8402 -supplier 7 -token sesame
//	coherad -addr :8403 -wal-dir /var/lib/cohera/site-a -fsync always
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"cohera/internal/admission"
	"cohera/internal/exec"
	"cohera/internal/obs"
	"cohera/internal/remote"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wal"
	"cohera/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", ":8401", "listen address")
		supplier    = flag.Int("supplier", 0, "which generated supplier to serve")
		items       = flag.Int("items", 20, "catalog size")
		seed        = flag.Int64("seed", 2026, "workload seed")
		token       = flag.String("token", "", "optional bearer token")
		snapshot    = flag.String("snapshot", "", "snapshot file: loaded on start when present, written on SIGINT/SIGTERM")
		streamBatch = flag.Int("stream-batch", 0, "rows per /fetchstream chunk (0 = server default)")
		walDir      = flag.String("wal-dir", "", "write-ahead log directory: mutations are durable and the catalog survives kill -9 (empty = no WAL)")
		ckptEvery   = flag.Duration("checkpoint-interval", time.Minute, "periodic checkpoint interval with -wal-dir (0 = checkpoint only at boot and shutdown)")
		fsyncMode   = flag.String("fsync", "batch", "WAL durability: always (fsync before every acknowledgement), batch (group commit), none (crash-consistent, OS decides)")
		maxInflight = flag.Int("max-inflight", 0, "admission control: max concurrent /fetchstream requests (0 = unlimited, gate off unless another admission flag is set)")
		tenantRate  = flag.Float64("tenant-rate", 0, "admission control: per-tenant sustained requests/sec, shed 429 beyond the burst (0 = per-tenant limit off)")
		queueDepth  = flag.Int("queue-depth", 0, "admission control: bounded wait queue in front of the in-flight window (0 = 2×max-inflight)")
	)
	flag.Parse()

	db := exec.NewDatabase()
	var wlog *wal.Log
	var tbl *storage.Table
	loaded := false
	if *walDir != "" {
		pol, err := wal.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			log.Fatalf("coherad: %v", err)
		}
		l, rec, err := wal.Open(*walDir, wal.Options{Policy: pol, Name: filepath.Base(*walDir)})
		if err != nil {
			log.Fatalf("coherad: opening wal: %v", err)
		}
		st, err := db.Recover(rec)
		if err != nil {
			log.Fatalf("coherad: wal recovery: %v", err)
		}
		wlog = l
		if t, err := db.Table("catalog"); err == nil {
			tbl = t
			loaded = true
			fmt.Printf("coherad: recovered %d rows from %s (checkpoint=%v, %d wal records replayed)\n",
				tbl.Len(), *walDir, st.Checkpoint, st.Replayed)
		}
	}
	if !loaded && *snapshot != "" {
		if f, err := os.Open(*snapshot); err == nil {
			loadErr := db.LoadSnapshot(f)
			if err := f.Close(); err != nil {
				log.Printf("coherad: closing snapshot after load: %v", err)
			}
			if loadErr != nil {
				log.Fatalf("loading snapshot: %v", loadErr)
			}
			t, err := db.Table("catalog")
			if err != nil {
				log.Fatalf("snapshot has no catalog table: %v", err)
			}
			tbl = t
			loaded = true
			fmt.Printf("coherad: restored %d rows from %s\n", tbl.Len(), *snapshot)
		}
	}
	// Attach after recovery/snapshot load (restored state must not be
	// re-logged) and before generation (generated state must be).
	if wlog != nil {
		db.AttachWAL(wlog)
	}
	if !loaded {
		sups := workload.Suppliers(*supplier+1, *items, 0.05, *seed)
		sup := sups[*supplier]
		rows, err := workload.GroundTruthRows(sup, value.DefaultCurrencyTable())
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range rows {
			r[0] = value.NewString(sup.Name + "/" + r[0].Str())
		}
		def := workload.CatalogDef()
		if err := db.LoadRows(def.Clone("catalog"), rows); err != nil {
			log.Fatal(err)
		}
		if err := db.CreateTableIndex("catalog", "sku", false); err != nil {
			log.Fatal(err)
		}
		t, err := db.Table("catalog")
		if err != nil {
			log.Fatal(err)
		}
		tbl = t
		fmt.Printf("coherad: generated %s (%d rows)\n", sup.Name, tbl.Len())
	}
	// A boot checkpoint bounds replay of the next restart and makes a
	// legacy-snapshot or generated catalog durable immediately. No-op
	// without a WAL.
	if err := db.Checkpoint(); err != nil {
		log.Fatalf("coherad: boot checkpoint: %v", err)
	}

	srv := remote.NewServer()
	srv.Token = *token
	srv.StreamBatchRows = *streamBatch
	srv.PublishTable(tbl, "sku", "supplier")
	if *maxInflight > 0 || *tenantRate > 0 || *queueDepth > 0 {
		gate := admission.New(admission.Config{
			MaxInFlight: *maxInflight,
			QueueDepth:  *queueDepth,
			TenantRate:  *tenantRate,
		})
		defer gate.Close()
		srv.Admission = gate
		fmt.Printf("coherad: admission gate on (max-inflight %d, queue-depth %d, tenant-rate %.1f/s)\n",
			*maxInflight, *queueDepth, *tenantRate)
	}

	stopCkpt := make(chan struct{})
	ckptDone := make(chan struct{})
	ticking := wlog != nil && *ckptEvery > 0
	if ticking {
		go func() {
			defer close(ckptDone)
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-tick.C:
					if err := db.Checkpoint(); err != nil {
						log.Printf("coherad: periodic checkpoint: %v", err)
					}
				}
			}
		}()
	}
	if *snapshot != "" || wlog != nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			if ticking {
				close(stopCkpt)
				<-ckptDone
			}
			if wlog != nil {
				if err := db.Checkpoint(); err != nil {
					log.Printf("coherad: final checkpoint: %v", err)
				} else {
					fmt.Printf("coherad: final checkpoint in %s\n", *walDir)
				}
				if err := wlog.Close(); err != nil {
					log.Printf("coherad: closing wal: %v", err)
				}
			}
			if *snapshot != "" {
				if err := writeSnapshot(db, *snapshot); err != nil {
					log.Printf("coherad: snapshot not written: %v", err)
				} else {
					fmt.Printf("coherad: snapshot written to %s\n", *snapshot)
				}
			}
			os.Exit(0)
		}()
	}
	// Mount the observability endpoints in front of the content API:
	// /metrics, /healthz and /debug/trace/{id} stay outside the bearer
	// gate; everything else falls through to the remote server.
	h := obs.NewHandler(srv)
	h.Slow = obs.NewSlowLog(0)
	fmt.Printf("coherad: listening on %s\n", *addr)
	fmt.Printf("  discover: GET %s/tables\n", *addr)
	fmt.Printf("  metrics:  GET %s/metrics  health: GET %s/healthz\n", *addr, *addr)
	fmt.Printf("  repair:   POST %s/digest  replicas: GET %s/debug/replication\n", *addr, *addr)
	fmt.Printf("  queries:  GET %s/debug/queries  cancel: POST %s/debug/queries/{id}/cancel\n", *addr, *addr)
	fmt.Printf("  attach:   coheraql -attach http://localhost%s\n", *addr)
	log.Fatal(http.ListenAndServe(*addr, h))
}

// writeSnapshot persists the database to path atomically: the bytes
// land in a temp file that is fsynced and closed before it renames
// over the target, so a crash mid-write can never leave a truncated
// snapshot where a good one used to be.
func writeSnapshot(db *exec.Database, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := db.SaveSnapshot(f); err != nil {
		closeErr := f.Close()
		_ = closeErr // the save error is the one worth reporting
		removeErr := os.Remove(tmp)
		_ = removeErr // best-effort cleanup; a stale temp is harmless
		return err
	}
	if err := f.Sync(); err != nil {
		closeErr := f.Close()
		_ = closeErr
		removeErr := os.Remove(tmp)
		_ = removeErr
		return err
	}
	if err := f.Close(); err != nil {
		removeErr := os.Remove(tmp)
		_ = removeErr
		return err
	}
	return os.Rename(tmp, path)
}
