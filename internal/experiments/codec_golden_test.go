package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"reflect"
	"testing"

	"membottle"
	"membottle/internal/codectest"
	"membottle/internal/objmap"
	"membottle/internal/store"
	"membottle/internal/truth"
)

var update = flag.Bool("update", false, "create missing codec goldens (existing ones are never rewritten)")

// storeVersion names the MBRS1 version constants a record golden is
// valid for: a bump of either sanctions new bytes under a new file name.
var storeVersion = fmt.Sprintf("s%dv%d", store.SchemaVersion, store.Version)

// goldenTruth is a small detached baseline: four objects, one of them
// never missed (and so absent from the persisted object table), plus an
// overhead with every field set.
func goldenTruth(t *testing.T) (*truth.Counter, membottle.Overhead) {
	om, err := objmap.Rehydrate(4, []objmap.RehydratedObject{
		{ID: 0, Name: "field", Kind: objmap.KindGlobal},
		{ID: 2, Name: "heap@0x140000000", Kind: objmap.KindHeap},
		{ID: 3, Name: "solve.tmp", Kind: objmap.KindStack},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := truth.NewCounter(om)
	if err := c.SetState(truth.State{Counts: []uint64{7, 0, 3, 11}, Total: 25, Unmatched: 4}); err != nil {
		t.Fatal(err)
	}
	var ov membottle.Overhead
	codectest.Fill(t, &ov)
	return c, ov
}

// TestStoreRecordGoldens pins the bytes of the three MBRS1 record
// payloads at the current store.SchemaVersion and store.Version, and
// checks that each golden decodes and re-encodes to itself.
func TestStoreRecordGoldens(t *testing.T) {
	t.Run("truth", func(t *testing.T) {
		c, ov := goldenTruth(t)
		got, err := encodeTruthRecord(c, ov)
		if err != nil {
			t.Fatal(err)
		}
		want := codectest.Golden(t, "testdata", "truth", storeVersion, got, *update)
		dc, dov, err := decodeTruthRecord(want)
		if err != nil {
			t.Fatalf("golden does not decode: %v", err)
		}
		re, err := encodeTruthRecord(dc, dov)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, want) {
			t.Fatalf("golden re-encodes differently:\n got: %x\nwant: %x", re, want)
		}
	})
	t.Run("table1", func(t *testing.T) {
		var r AppResult
		codectest.Fill(t, &r)
		want := codectest.Golden(t, "testdata", "table1", storeVersion, encodeTable1Record(r), *update)
		dr, err := decodeTable1Record(want, r.App)
		if err != nil {
			t.Fatalf("golden does not decode: %v", err)
		}
		if re := encodeTable1Record(dr); !bytes.Equal(re, want) {
			t.Fatalf("golden re-encodes differently:\n got: %x\nwant: %x", re, want)
		}
	})
	t.Run("table2", func(t *testing.T) {
		var r Table2AppResult
		codectest.Fill(t, &r)
		want := codectest.Golden(t, "testdata", "table2", storeVersion, encodeTable2Record(r), *update)
		dr, err := decodeTable2Record(want, r.App)
		if err != nil {
			t.Fatalf("golden does not decode: %v", err)
		}
		if re := encodeTable2Record(dr); !bytes.Equal(re, want) {
			t.Fatalf("golden re-encodes differently:\n got: %x\nwant: %x", re, want)
		}
	})
}

// TestStoreRecordRoundTripEveryField catches a field added to a record
// type the codecs persist in full (Overhead, AppResult and Table1Row,
// Table2AppResult and Table2Row) but left out of its encoder or decoder.
func TestStoreRecordRoundTripEveryField(t *testing.T) {
	t.Run("overhead", func(t *testing.T) {
		c, ov := goldenTruth(t)
		payload, err := encodeTruthRecord(c, ov)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := decodeTruthRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != ov {
			t.Fatalf("round trip lost data:\n got: %+v\nwant: %+v", got, ov)
		}
	})
	t.Run("table1", func(t *testing.T) {
		var want AppResult
		codectest.Fill(t, &want)
		got, err := decodeTable1Record(encodeTable1Record(want), want.App)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip lost data:\n got: %+v\nwant: %+v", got, want)
		}
	})
	t.Run("table2", func(t *testing.T) {
		var want Table2AppResult
		codectest.Fill(t, &want)
		got, err := decodeTable2Record(encodeTable2Record(want), want.App)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip lost data:\n got: %+v\nwant: %+v", got, want)
		}
	})
}
