// Package remote puts real sockets under the federation: a Server
// exposes a site's local tables over HTTP (schema discovery on /tables,
// rows on the /fetchstream push stream), and the client side presents
// each remote table as a wrapper.Source with σ/π/limit/γ pushdown, so a
// federation can span processes and machines exactly the way the
// paper's cross-enterprise setting demands. Requests, schemas and
// stream metadata are JSON; rows travel as frames of the binary Value
// encoding the disk uses (frame.go), so money, durations, timestamps
// and every float bit survive the trip.
package remote

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/value"
)

// wireValue is the JSON encoding of one value.Value in a request
// filter. Rows travel in the binary encoding instead (frame.go).
type wireValue struct {
	Kind string `json:"k"`
	// I carries ints, money minor units, unix-nano timestamps and
	// duration nanoseconds.
	I int64 `json:"i,omitempty"`
	// F carries floats.
	F float64 `json:"f,omitempty"`
	// S carries strings, currency codes and duration semantics.
	S string `json:"s,omitempty"`
	// B carries booleans.
	B bool `json:"b,omitempty"`
}

func encodeValue(v value.Value) wireValue {
	switch v.Kind() {
	case value.KindNull:
		return wireValue{Kind: "null"}
	case value.KindBool:
		return wireValue{Kind: "bool", B: v.Bool()}
	case value.KindInt:
		return wireValue{Kind: "int", I: v.Int()}
	case value.KindFloat:
		return wireValue{Kind: "float", F: v.Float()}
	case value.KindString:
		return wireValue{Kind: "string", S: v.Str()}
	case value.KindMoney:
		amt, cur := v.Money()
		return wireValue{Kind: "money", I: amt, S: cur}
	case value.KindTime:
		return wireValue{Kind: "time", I: v.Time().UnixNano()}
	case value.KindDuration:
		d, sem := v.Duration()
		return wireValue{Kind: "duration", I: int64(d), S: string(sem)}
	default:
		return wireValue{Kind: "null"}
	}
}

func decodeValue(w wireValue) (value.Value, error) {
	switch w.Kind {
	case "null":
		return value.Null, nil
	case "bool":
		return value.NewBool(w.B), nil
	case "int":
		return value.NewInt(w.I), nil
	case "float":
		return value.NewFloat(w.F), nil
	case "string":
		return value.NewString(w.S), nil
	case "money":
		return value.NewMoney(w.I, w.S), nil
	case "time":
		return value.NewTime(time.Unix(0, w.I).UTC()), nil
	case "duration":
		return value.NewDuration(time.Duration(w.I), value.DurationSemantics(w.S)), nil
	default:
		return value.Null, fmt.Errorf("remote: unknown value kind %q", w.Kind)
	}
}

// wireColumn mirrors schema.Column.
type wireColumn struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	NotNull  bool   `json:"not_null,omitempty"`
	FullText bool   `json:"full_text,omitempty"`
	Taxonomy string `json:"taxonomy,omitempty"`
}

// wireSchema mirrors schema.Table.
type wireSchema struct {
	Name    string       `json:"name"`
	Columns []wireColumn `json:"columns"`
	Key     []string     `json:"key,omitempty"`
	// PushdownEq advertises the columns the server filters remotely.
	PushdownEq []string `json:"pushdown_eq,omitempty"`
	// Volatile marks live tables.
	Volatile bool `json:"volatile,omitempty"`
}

// wireGrouping is the JSON form of plan.Grouping: the group columns and
// the aggregates, each {"fn":"SUM","col":"qty"} (no col for COUNT(*)).
type wireGrouping struct {
	Keys []string  `json:"keys,omitempty"`
	Aggs []wireAgg `json:"aggs,omitempty"`
}

type wireAgg struct {
	Fn  string `json:"fn"`
	Col string `json:"col,omitempty"`
}

func encodeGrouping(g *plan.Grouping) *wireGrouping {
	if g == nil {
		return nil
	}
	out := &wireGrouping{Keys: g.Keys}
	for _, c := range g.Aggs {
		out.Aggs = append(out.Aggs, wireAgg{Fn: c.Func, Col: c.Col})
	}
	return out
}

// decodeGrouping maps the wire record back and validates it; nil
// stays nil.
func decodeGrouping(w *wireGrouping) (*plan.Grouping, error) {
	if w == nil {
		return nil, nil
	}
	g := &plan.Grouping{Keys: w.Keys}
	for _, a := range w.Aggs {
		g.Aggs = append(g.Aggs, plan.AggCall{Func: strings.ToUpper(a.Fn), Col: a.Col})
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func encodeSchema(def *schema.Table, pushdown []string, volatile bool) wireSchema {
	ws := wireSchema{Name: def.Name, Key: def.Key, PushdownEq: pushdown, Volatile: volatile}
	for _, c := range def.Columns {
		ws.Columns = append(ws.Columns, wireColumn{
			Name: c.Name, Kind: c.Kind.String(), NotNull: c.NotNull,
			FullText: c.FullText, Taxonomy: c.Taxonomy,
		})
	}
	return ws
}

func decodeSchema(ws wireSchema) (*schema.Table, error) {
	cols := make([]schema.Column, 0, len(ws.Columns))
	for _, wc := range ws.Columns {
		k, err := value.KindFromName(wc.Kind)
		if err != nil {
			return nil, fmt.Errorf("remote: schema %q: %w", ws.Name, err)
		}
		cols = append(cols, schema.Column{
			Name: wc.Name, Kind: k, NotNull: wc.NotNull,
			FullText: wc.FullText, Taxonomy: wc.Taxonomy,
		})
	}
	return schema.NewTable(ws.Name, cols, ws.Key...)
}

type wireFilter struct {
	Column string    `json:"column"`
	Value  wireValue `json:"value"`
}

// digestRequest is the body of POST /digest.
type digestRequest struct {
	Table string `json:"table"`
}

// digestResponse carries a table's content digest. The 64-bit hash is
// zero-padded hex so it survives JSON readers that truncate large
// integers to float64.
type digestResponse struct {
	Hash string `json:"hash"`
	Rows int    `json:"rows"`
}

// replicationStatus is the body of GET /debug/replication.
type replicationStatus struct {
	Tables []tableReplication `json:"tables"`
}

type tableReplication struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
	Rows   int    `json:"rows"`
}

// errorResponse carries server-side failures.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w interface{ Write([]byte) (int, error) }, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
