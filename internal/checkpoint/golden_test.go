package checkpoint

import (
	"bytes"
	"flag"
	"reflect"
	"strconv"
	"testing"

	"membottle/internal/codectest"
)

var update = flag.Bool("update", false, "create missing codec goldens (existing ones are never rewritten)")

// filledSnapshot is a snapshot with every field non-zero, every optional
// section present.
func filledSnapshot(t *testing.T) *Snapshot {
	s := &Snapshot{}
	codectest.Fill(t, s)
	return s
}

// TestSnapshotGolden pins the MBCP1 bytes at the current Version: a
// change to the checkpoint encoding must bump Version, which names a new
// golden file.
func TestSnapshotGolden(t *testing.T) {
	got := encode(t, filledSnapshot(t))
	want := codectest.Golden(t, "testdata", "snapshot", "v"+strconv.Itoa(Version), got, *update)
	s, err := Read(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden does not decode: %v", err)
	}
	if re := encode(t, s); !bytes.Equal(re, want) {
		t.Fatalf("golden re-encodes differently:\n got: %x\nwant: %x", re, want)
	}
}

// TestSnapshotRoundTripEveryField catches a field added to any snapshot
// type but left out of Write or Read.
func TestSnapshotRoundTripEveryField(t *testing.T) {
	want := filledSnapshot(t)
	got, err := Read(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip lost data:\n got: %+v\nwant: %+v", got, want)
	}
}
