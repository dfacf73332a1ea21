package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"cohera/internal/federation"
	"cohera/internal/storage"
)

// Bulk-scan classes, in the order class1..class3 report them; class4
// is the wide scan's time to first row.
const (
	scanWide = iota
	scanPushed
	scanAgg
	numScans
)

var scanNames = [numScans]string{"wide", "pushed10", "agg"}

// scanTail is the percentile op_tail_ms reports on bulk_scan.
const scanTail = 0.9

// scanSQL renders one statement of the cycle. wide ships every cell of
// every row; pushed10 pushes a 10%-selectivity σ and a two-column π to
// the sites; agg ships rows for a blocking GROUP BY at the coordinator.
func scanSQL(class int, rng *rand.Rand) string {
	switch class {
	case scanWide:
		return "SELECT * FROM catalog"
	case scanPushed:
		return fmt.Sprintf("SELECT sku, qty FROM catalog WHERE qty < %d", 98+rng.Intn(5))
	default:
		return "SELECT category, COUNT(*) FROM catalog GROUP BY category"
	}
}

// scanLog is one bulk client's record.
type scanLog struct {
	start    time.Time // of the measured phase, for windowing
	class    [numScans]windowed
	firstRow windowed // wide: ms until the first row reached the caller
	cycle    windowed // ms for one wide+pushed10+agg round, and the rows it delivered
	rows     int64
	ops      int64
	failures []string
	done     []scanDone
}

// scanDone is one finished scan awaiting its output check: the row
// count always, the rows themselves when the op was sampled.
type scanDone struct {
	sql  string
	n    int
	rows []storage.Row
}

// drain runs one statement through QueryStream and consumes it. With
// keep set the rows are retained (a slice append per row) for the
// oracle comparison that runs after the phase.
func drain(ctx context.Context, fed *federation.Federation, sql string, keep bool) (rows []storage.Row, n int, firstMS float64, err error) {
	start := time.Now()
	st, tr, err := fed.QueryStream(ctx, sql)
	if err != nil {
		return nil, 0, 0, err
	}
	defer func() {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	for {
		row, nerr := st.Next()
		if errors.Is(nerr, io.EOF) {
			break
		}
		if nerr != nil {
			return nil, n, firstMS, nerr
		}
		if n == 0 {
			firstMS = msSince(start)
		}
		n++
		if keep {
			rows = append(rows, row)
		}
	}
	if tr != nil && tr.Degraded {
		return nil, n, firstMS, errDegraded
	}
	return rows, n, firstMS, nil
}

func newScanLog(start time.Time, width time.Duration) *scanLog {
	l := &scanLog{start: start, firstRow: windowed{width: width}, cycle: windowed{width: width}}
	for c := range l.class {
		l.class[c].width = width
	}
	return l
}

// scan runs one statement and returns how many rows it delivered.
func (l *scanLog) scan(ctx context.Context, fed *federation.Federation, class int, sql string, keep bool) int {
	start := time.Now()
	rows, n, firstMS, err := drain(ctx, fed, sql, keep)
	ms := msSince(start)
	l.ops++
	if err != nil {
		l.failures = append(l.failures, fmt.Sprintf("%s: %v", sql, err))
		return 0
	}
	l.class[class].add(start.Sub(l.start), ms)
	if class == scanWide {
		l.firstRow.add(start.Sub(l.start), firstMS)
	}
	l.rows += int64(n)
	l.done = append(l.done, scanDone{sql, n, rows})
	return n
}

func runBulkScan(ctx context.Context, cfg config) (*report, error) {
	sz := cfg.sz
	bed, orc, setupS, err := buildReadSide(ctx, cfg, func(b *readBed) error {
		rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
		for c := 0; c < numScans; c++ {
			if _, _, _, err := drain(ctx, b.fed, scanSQL(c, rng), false); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer bed.close()

	r := newReport("bulk_scan")
	r.set("setup_s", setupS, "s")

	width := cfg.window()
	logs := make([]*scanLog, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for c := range logs {
		l := newScanLog(start, width)
		logs[c] = l
		rng := rand.New(rand.NewSource(cfg.seed + int64(1000*(c+1))))
		wg.Add(1)
		go func() {
			defer wg.Done()
			turn := start
			for i := 0; ctx.Err() == nil && turn.Before(deadline); i++ {
				delivered := 0
				for class := 0; class < numScans; class++ {
					delivered += l.scan(ctx, bed.fed, class, scanSQL(class, rng), i%sz.sampleEvery == 0)
				}
				now := time.Now()
				at, ms := turn.Sub(start), millis(now.Sub(turn))
				l.cycle.add(at, ms)
				l.cycle.addWork(at, float64(delivered), ms)
				turn = now
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	all := newScanLog(start, width) // both clients' logs in one
	for _, l := range logs {
		for c := range all.class {
			all.class[c].merge(&l.class[c])
		}
		all.firstRow.merge(&l.firstRow)
		all.cycle.merge(&l.cycle)
		all.rows += l.rows
		r.attempted += l.ops
	}
	cycles := all.cycle.whole()
	r.set("throughput_per_s", all.cycle.quietRate(clients), "1/s")
	r.note("throughput_per_s = result rows/s delivered to %d closed-loop clients (rows_per_s), %d rows in %.1fs", clients, all.rows, wall)
	r.set("op_p50_ms", all.cycle.quiet(0.5), "ms")
	r.set("op_tail_ms", all.cycle.quiet(scanTail), "ms")
	r.note("op = one wide+pushed10+agg cycle; n=%d, op_tail_ms is p%g (a window holds about twenty cycles)", cycles.n(), 100*scanTail)
	for c, name := range scanNames {
		r.set(fmt.Sprintf("class%d_p50_ms", c+1), all.class[c].quiet(0.5), "ms")
		r.note("class%d = %s scan, n=%d", c+1, name, all.class[c].whole().n())
	}
	r.set("class4_p50_ms", all.firstRow.quiet(0.5), "ms")
	r.note("class4 = wide scan time to first row, n=%d", all.firstRow.whole().n())
	r.noteWindows(width)
	r.info("whole_run.throughput_per_s", float64(all.rows)/wall, "1/s")
	r.info("whole_run.op_p50_ms", cycles.p(0.5), "ms")
	r.info("whole_run.op_tail_ms", cycles.p(scanTail), "ms")

	// Output checks: every op's row count, and the full multiset of the
	// sampled ones.
	for _, l := range logs {
		for _, f := range l.failures {
			r.failOp("%s", f)
		}
		for _, d := range l.done {
			want, err := orc.answer(d.sql)
			if err != nil {
				return nil, err
			}
			if d.n != len(want) {
				r.failOp("%s: %d rows, oracle has %d", d.sql, d.n, len(want))
			} else if d.rows != nil {
				if err := sameMultiset(d.rows, want); err != nil {
					r.failOp("%s: %v", d.sql, err)
				}
			}
		}
	}
	return r, nil
}
