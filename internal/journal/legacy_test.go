package journal

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"testing"

	"cohera/internal/value"
	"cohera/internal/wal"
)

// encodeFrameV0 is the version-0 (JSON) record writer of earlier
// releases, kept as the reference that builds old-format fixtures.
func encodeFrameV0(t testing.TB, r record) []byte {
	t.Helper()
	wr := wireRecord{Kind: r.kind, StmtID: r.it.StmtID}
	if r.kind == kindIntent {
		wr.Seq, wr.Table, wr.Fragment = r.it.Seq, r.it.Table, r.it.Fragment
		wr.Op, wr.SQL = string(r.it.Op), r.it.SQL
		if len(r.it.Row) > 0 {
			wr.Row = wal.EncodeRow(r.it.Row)
		}
	}
	payload, err := json.Marshal(wr)
	if err != nil {
		t.Fatalf("encoding version-0 record: %v", err)
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return append(hdr[:], payload...)
}

// A fragment log written by an older release, then continued by this
// one: intents and settle markers of both formats replay together.
func TestMixedFormatJournalReplays(t *testing.T) {
	row := []value.Value{value.NewString("sku-1"), value.NewInt(42), value.NewFloat(1.5),
		value.NewBool(true), value.Null, value.NewMoney(999, "USD")}
	old := []record{
		{kind: kindIntent, it: Intent{StmtID: "s1", Seq: 1, Table: "parts", Fragment: "f1", Op: OpUpsert, Row: row}},
		{kind: kindIntent, it: Intent{StmtID: "s2", Seq: 2, Table: "parts", Fragment: "f1", Op: OpSQL, SQL: "UPDATE parts SET price = 1"}},
		{kind: kindApplied, it: Intent{StmtID: "s1"}},
		{kind: "compacted", it: Intent{StmtID: "s0"}}, // a kind replay ignores, as it always has
	}
	var buf []byte
	for _, r := range old {
		buf = append(buf, encodeFrameV0(t, r)...)
	}
	for _, r := range []record{
		{kind: kindIntent, it: Intent{StmtID: "s3", Seq: 3, Table: "parts", Fragment: "f1", Op: OpUpsert, Row: row[:2]}},
		{kind: kindAbandoned, it: Intent{StmtID: "s2"}},
	} {
		frame, err := encodeFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, frame...)
	}
	g := New().Group("west-2", "parts")
	g.SetBytes("f1", buf)
	if g.Lost() {
		t.Fatal("mixed-format log marked lost")
	}
	var got []Intent
	if _, err := g.Drain(context.Background(), func(it Intent) error { got = append(got, it); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].StmtID != "s3" || got[0].Seq != 3 || len(got[0].Row) != 2 || !got[0].Row[1].Equal(row[1]) {
		t.Fatalf("pending after replay: %+v", got)
	}
}

// Both formats decode every record shape to the same record.
func TestJournalFormatsDecodeAlike(t *testing.T) {
	for _, r := range []record{
		{kind: kindIntent, it: Intent{StmtID: "s1", Seq: 7, Table: "parts", Fragment: "f1", Op: OpUpsert,
			Row: []value.Value{value.NewString("a"), value.Null, value.NewMoney(5, "EUR")}}},
		{kind: kindIntent, it: Intent{StmtID: "s2", Seq: 8, Table: "parts", Fragment: "f2", Op: OpSQL, SQL: "DELETE FROM parts"}},
		{kind: kindApplied, it: Intent{StmtID: "s1"}},
		{kind: kindAbandoned, it: Intent{StmtID: "s2"}},
	} {
		v1, err := encodeFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		a, _, okA := readFrame(v1, 0)
		b, _, okB := readFrame(encodeFrameV0(t, r), 0)
		if !okA || !okB || !sameJournalRecord(a, b) || !sameJournalRecord(a, r) {
			t.Errorf("%s %s: binary %+v (%v), json %+v (%v)", r.kind, r.it.StmtID, a, okA, b, okB)
		}
	}
}

func sameJournalRecord(a, b record) bool {
	if a.kind != b.kind || a.it.StmtID != b.it.StmtID || a.it.Seq != b.it.Seq || a.it.Table != b.it.Table ||
		a.it.Fragment != b.it.Fragment || a.it.Op != b.it.Op || a.it.SQL != b.it.SQL || len(a.it.Row) != len(b.it.Row) {
		return false
	}
	for i := range a.it.Row {
		if !a.it.Row[i].Equal(b.it.Row[i]) {
			return false
		}
	}
	return true
}

// encodeFrame refuses a record replay could not read back.
func TestEncodeRejectsUnknownOp(t *testing.T) {
	if _, err := encodeFrame(record{kind: kindIntent, it: Intent{StmtID: "s", Op: "merge"}}); err == nil {
		t.Fatal("intent with an unknown op encoded")
	}
	if _, err := encodeFrame(record{kind: "compacted", it: Intent{StmtID: "s"}}); err == nil {
		t.Fatal("unknown record kind encoded")
	}
}
