package bench

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"time"

	"cohera/internal/federation"
	"cohera/internal/obs"
	"cohera/internal/remote"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// E17PushdownWire measures what capability-aware σ/π pushdown is worth
// on a real wire: one wide remote table behind the HTTP streaming
// protocol, scanned at three predicate selectivities with pushdown on
// and off. The pushed plan evaluates the filter and projection inside
// the remote scan and ships only matching cells; the unpushed plan
// ships every row to the coordinator's residual stage. We report rows
// decoded by the client, frame bytes moved, and p50 latency.
func E17PushdownWire(cfg Config) (Table, error) {
	rows, reps := 1_000_000, 5
	if cfg.Quick {
		rows, reps = 20_000, 3
	}
	t := Table{
		ID:      "E17",
		Title:   fmt.Sprintf("σ/π pushdown on the wire: %d-row × 8-col remote scan", rows),
		Headers: []string{"selectivity", "pushdown", "rows decoded/query", "wire KB/query", "p50 latency", "speedup"},
		Notes:   "expected shape: at 0.1% selectivity pushdown cuts wire bytes >50% and latency >1.5x; at 90% both converge",
	}

	// An 8-column content row: int key, int predicate column, six
	// catalog-ish string payload columns.
	cols := []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
		{Name: "qty", Kind: value.KindInt, NotNull: true},
	}
	for i := 0; i < 6; i++ {
		cols = append(cols, schema.Column{Name: fmt.Sprintf("attr%d", i), Kind: value.KindString})
	}
	def := schema.MustTable("wire", cols, "id")
	tbl := storage.NewTable(def.Clone("wire"))
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	for i := 0; i < rows; i++ {
		r := storage.Row{value.NewInt(int64(i)), value.NewInt(rng.Int63n(1000))}
		for j := 0; j < 6; j++ {
			r = append(r, value.NewString(fmt.Sprintf("content-%d-%07d-lorem-ipsum", j, i)))
		}
		if _, err := tbl.Insert(r); err != nil {
			return t, err
		}
	}
	srv := remote.NewServer()
	srv.PublishTable(tbl)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	mkFed := func(pushdown bool) (*federation.Federation, error) {
		sources, err := remote.Dial(hs.URL, "").Tables(context.Background())
		if err != nil {
			return nil, err
		}
		fed := federation.New(federation.NewAgoric())
		fed.DisablePredicatePushdown = !pushdown
		fed.DisableProjectionPushdown = !pushdown
		site := federation.NewSite("wire-remote")
		if err := fed.AddSite(site); err != nil {
			return nil, err
		}
		site.AddSource(sources[0])
		if _, err := fed.DefineTable(def.Clone("wire"),
			federation.NewFragment("f", nil, site)); err != nil {
			return nil, err
		}
		return fed, nil
	}

	wireBytes := obs.Default().Counter("cohera_stream_bytes_total",
		"Payload bytes moved through the streaming wire protocol.",
		obs.Labels{"side": "client"})

	type sel struct {
		label string
		k     int64
	}
	sels := []sel{{"0.1%", 1}, {"10%", 100}, {"90%", 900}}
	ctx := context.Background()
	for _, s := range sels {
		var basep50 time.Duration
		for _, pushdown := range []bool{false, true} {
			fed, err := mkFed(pushdown)
			if err != nil {
				return t, err
			}
			sql := fmt.Sprintf("SELECT id, qty FROM wire WHERE qty < %d", s.k)
			var lats []time.Duration
			var decoded, bytesMoved int64
			for r := 0; r < reps; r++ {
				b0 := wireBytes.Value()
				start := time.Now()
				_, trace, err := fed.QueryTraced(ctx, sql)
				if err != nil {
					return t, fmt.Errorf("E17 %s pushdown=%v: %w", s.label, pushdown, err)
				}
				lats = append(lats, time.Since(start))
				bytesMoved = wireBytes.Value() - b0
				decoded = 0
				for _, n := range trace.PushedRows {
					decoded += int64(n)
				}
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			p50 := lats[len(lats)/2]
			speedup := "-"
			if !pushdown {
				basep50 = p50
			} else if p50 > 0 {
				speedup = fmt.Sprintf("%.2fx", float64(basep50)/float64(p50))
			}
			t.Rows = append(t.Rows, []string{
				s.label,
				fmt.Sprintf("%v", pushdown),
				fmt.Sprintf("%d", decoded),
				fmt.Sprintf("%.1f", float64(bytesMoved)/1024),
				fmtDur(p50),
				speedup,
			})
		}
	}
	return t, nil
}
