package snapshot

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fastsim/internal/memo"
)

const testFP = 0xfeedface12345678

// testImage builds a representative image: several configs (one a shell),
// branchy actions with labelled edges, and non-zero stats.
func testImage() *Image {
	img := &Image{Fingerprint: testFP}
	g := &img.Graph
	g.Keys = []string{"\x00aa", "\x01bb", "\x02cc"}
	g.First = []int64{0, 2, -1}
	g.Actions = []memo.GraphAction{
		{Kind: 0, Cycles: 9, Insts: 4, Loads: 1, Stores: 1, Recs: 2, Next: 1, NextCfg: -1},
		{Kind: 1, Rel: -3, Next: -1, NextCfg: -1,
			Labels:  []int64{-1, 0, 4096},
			Targets: []int64{2, 3, 3}},
		{Kind: 8, Next: -1, NextCfg: 1},
		{Kind: 7, Next: -1, NextCfg: -1},
	}
	g.Stats.Configs = 3
	g.Stats.Actions = 4
	g.Stats.Hits = 17
	g.Stats.ChainMax = 123
	g.Stats.PeakBytes = 4096
	g.Stats.ChainHist.Add(5)
	g.Stats.ChainHist.Add(123)
	return img
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := testImage()
	data := Encode(img)
	got, err := Decode(data, testFP)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(img, got) {
		t.Fatalf("round trip changed the image:\nin  %+v\nout %+v", img, got)
	}
	// Encoding is deterministic.
	if string(Encode(got)) != string(data) {
		t.Error("re-encode produced different bytes")
	}
}

func TestDecodeRejectsEveryTruncation(t *testing.T) {
	data := Encode(testImage())
	for n := 0; n < len(data); n++ {
		_, err := Decode(data[:n], testFP)
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(data))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	data := Encode(testImage())
	// Flip one bit in every byte of the header and of each section header,
	// and a sample of payload positions; all must fail closed (never an
	// accepted-but-different image, never a panic).
	positions := make([]int, 0, len(data))
	for i := 0; i < headerLen+sectionHdrLen; i++ {
		positions = append(positions, i)
	}
	for i := headerLen + sectionHdrLen; i < len(data); i += 7 {
		positions = append(positions, i)
	}
	for _, i := range positions {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x10
		img, err := Decode(mut, testFP)
		if err == nil {
			// An undetected flip is acceptable only if it is literally the
			// same image (cannot happen with a checksum, but keep the
			// invariant explicit).
			if !reflect.DeepEqual(img, testImage()) {
				t.Fatalf("bit flip at %d accepted and changed the image", i)
			}
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
}

// Both directions of version skew are typed ErrVersion, not corruption:
// an older build's file (v2 still carried the per-config use counter) and
// one from a newer build.
func TestDecodeVersionSkew(t *testing.T) {
	for _, v := range []uint32{Version - 1, Version + 1} {
		data := Encode(testImage())
		// Patch the version field and re-seal the header checksum so version
		// skew is distinguishable from corruption.
		binary.LittleEndian.PutUint32(data[8:], v)
		binary.LittleEndian.PutUint64(data[headerLen-8:], fnv1a(data[:headerLen-8]))
		if _, err := Decode(data, testFP); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: got %v, want ErrVersion", v, err)
		}
	}
}

func TestDecodeFingerprintMismatch(t *testing.T) {
	data := Encode(testImage())
	_, err := Decode(data, testFP+1)
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("got %v, want ErrMismatch", err)
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	data := append(Encode(testImage()), 0xAB)
	if _, err := Decode(data, testFP); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.fsnap")
	img := testImage()
	n, err := Save(path, img)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(n) {
		t.Fatalf("stat: %v (size %v, want %d)", err, fi, n)
	}
	got, err := Load(path, testFP)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(img, got) {
		t.Fatal("file round trip changed the image")
	}
	// No temp litter.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want just the snapshot", len(ents))
	}

	if _, err := Load(filepath.Join(dir, "missing.fsnap"), testFP); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: got %v, want fs.ErrNotExist", err)
	}
}

func TestSaveReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.fsnap")
	if _, err := Save(path, testImage()); err != nil {
		t.Fatal(err)
	}
	img2 := testImage()
	img2.Graph.Stats.Hits = 99
	if _, err := Save(path, img2); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.Stats.Hits != 99 {
		t.Error("second save did not replace the first")
	}
}
