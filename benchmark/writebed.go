package main

import (
	"fmt"
	"os"
	"path/filepath"

	"cohera/internal/federation"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/wal"
	"cohera/internal/workload"
)

// Write-bed key space: fragment a holds skus below 'M', fragment p the
// rest. Base rows use the A/P prefixes, rows the writer inserts use
// B/Q, so reader ranges over base keys never see a writer's row.
var (
	writeBasePrefix   = []string{"A", "P"}
	writeInsertPrefix = []string{"B", "Q"}
	writeFragPred     = []string{"sku < 'M'", "sku >= 'M'"}
)

const replicasPerFragment = 2

// writeBed is the write-side topology: two fragments × two replicas on
// four in-process sites. With walDir set every site logs to its own
// wal.Log under fsync=batch (the policy BENCHMARK.json states); an
// empty walDir gives the same bed without logs, the no-WAL baseline
// the overhead probe subtracts.
type writeBed struct {
	fed    *federation.Federation
	sites  []*federation.Site // fragment-major: a/r0, a/r1, p/r0, p/r1
	frags  []*federation.Fragment
	logs   []*wal.Log // parallel to sites; nil entries without WAL
	walDir string
}

// Site names carry tag so beds alive at the same time keep separate
// series in the shared metrics registry.
func newWriteBed(tag, walDir string, replicas int) (_ *writeBed, err error) {
	b := &writeBed{fed: federation.New(federation.NewAgoric()), walDir: walDir}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	for f, predSQL := range writeFragPred {
		pred, err := sqlparse.ParseExpr(predSQL)
		if err != nil {
			return nil, err
		}
		var reps []*federation.Site
		for r := 0; r < replicas; r++ {
			site := federation.NewSite(fmt.Sprintf("%s%d%d", tag, f, r))
			if err := b.fed.AddSite(site); err != nil {
				return nil, err
			}
			b.sites = append(b.sites, site)
			reps = append(reps, site)
			if walDir == "" {
				b.logs = append(b.logs, nil)
				continue
			}
			l, rec, err := openSiteLog(walDir, site.Name())
			if err != nil {
				return nil, err
			}
			b.logs = append(b.logs, l)
			if rec.HasData() {
				return nil, fmt.Errorf("fresh wal dir %s has recovery data", walDir)
			}
			federation.AttachSiteWAL(site, l)
		}
		b.frags = append(b.frags, federation.NewFragment(fmt.Sprintf("f%d", f), pred, reps...))
	}
	if _, err := b.fed.DefineTable(workload.CatalogDef(), b.frags...); err != nil {
		return nil, err
	}
	return b, nil
}

// newTempWriteBed is newWriteBed on a fresh directory under workDir,
// which the bed's close removes again.
func newTempWriteBed(tag, workDir string) (*writeBed, error) {
	dir, err := os.MkdirTemp(workDir, "wal-")
	if err != nil {
		return nil, err
	}
	b, err := newWriteBed(tag, dir, replicasPerFragment)
	if err != nil {
		rmErr := os.RemoveAll(dir)
		_ = rmErr // the build error is the one to report
	}
	return b, err
}

func openSiteLog(walDir, site string) (*wal.Log, *wal.Recovered, error) {
	l, rec, err := wal.Open(filepath.Join(walDir, site), wal.Options{Policy: wal.SyncBatch, Name: site})
	if err != nil {
		return nil, nil, fmt.Errorf("opening wal for %s: %w", site, err)
	}
	return l, rec, nil
}

// load bulk-loads one shard per fragment through LoadFragment (every
// replica, one WAL commit scope each) and indexes sku.
func (b *writeBed) load(shardRows [][]storage.Row) error {
	for f, frag := range b.frags {
		if err := b.fed.LoadFragment("catalog", frag, shardRows[f]); err != nil {
			return err
		}
	}
	for _, s := range b.sites {
		if err := s.DB().CreateTableIndex("catalog", "sku", false); err != nil {
			return err
		}
	}
	return nil
}

// closeLogs closes every open WAL (stopping its batch flusher) and
// reports the first error.
func (b *writeBed) closeLogs() error {
	var first error
	for i, l := range b.logs {
		if l == nil {
			continue
		}
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
		b.logs[i] = nil
	}
	return first
}

// close releases the logs and removes the WAL directory.
func (b *writeBed) close() {
	closeErr := b.closeLogs()
	_ = closeErr // teardown after the checks have run; nothing to report to
	if b.walDir != "" {
		rmErr := os.RemoveAll(b.walDir)
		_ = rmErr
	}
}

// fragmentDigests returns each site's digest of the catalog table.
func (b *writeBed) siteDigests() ([]storage.TableDigest, error) {
	out := make([]storage.TableDigest, len(b.sites))
	for i, s := range b.sites {
		d, err := s.DB().TableDigest("catalog")
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}
