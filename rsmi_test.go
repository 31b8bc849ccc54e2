package rsmi_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"rsmi"
	"rsmi/internal/dataset"
)

// The facade must be sufficient for the full index lifecycle without
// touching internal packages (beyond test data generation).
func TestPublicAPILifecycle(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 3000, 1)
	idx := rsmi.New(pts, rsmi.Options{
		BlockCapacity:      50,
		PartitionThreshold: 1000,
		Epochs:             20,
		LearningRate:       0.1,
		Seed:               1,
	})
	if idx.Len() != 3000 {
		t.Fatalf("Len = %d", idx.Len())
	}
	// Point query.
	if !idx.PointQuery(pts[0]) {
		t.Error("indexed point not found")
	}
	if idx.PointQuery(rsmi.Pt(-1, -1)) {
		t.Error("absent point found")
	}
	// Window query: no false positives.
	w := rsmi.NewRect(rsmi.Pt(0.2, 0.0), rsmi.Pt(0.4, 0.2))
	for _, p := range idx.WindowQuery(w) {
		if !w.Contains(p) {
			t.Errorf("false positive %v", p)
		}
	}
	// kNN.
	nn := idx.KNN(rsmi.Pt(0.5, 0.1), 10)
	if len(nn) != 10 {
		t.Errorf("kNN returned %d", len(nn))
	}
	// Updates.
	p := rsmi.Pt(0.123, 0.456)
	idx.Insert(p)
	if !idx.PointQuery(p) {
		t.Error("inserted point not found")
	}
	if !idx.Delete(p) || idx.PointQuery(p) {
		t.Error("delete failed")
	}
	// Stats.
	s := idx.Stats()
	if s.Name != "RSMI" || s.SizeBytes <= 0 {
		t.Errorf("Stats = %+v", s)
	}
	// Rebuilder view.
	r := idx.AsRebuilder()
	r.Insert(rsmi.Pt(0.9, 0.05))
	if r.Len() != 3001 {
		t.Errorf("rebuilder Len = %d", r.Len())
	}
}

func TestRectAroundHelper(t *testing.T) {
	r := rsmi.RectAround(rsmi.Pt(0.5, 0.5), 0.2, 0.1)
	if !r.Contains(rsmi.Pt(0.5, 0.5)) || r.Contains(rsmi.Pt(0.7, 0.5)) {
		t.Errorf("RectAround = %v", r)
	}
}

func TestSaveLoadThroughFacade(t *testing.T) {
	pts := dataset.Generate(dataset.Normal, 1500, 2)
	idx := rsmi.New(pts, rsmi.Options{
		BlockCapacity: 50, PartitionThreshold: 800,
		Epochs: 15, LearningRate: 0.1, Seed: 1,
	})
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	loaded, err := rsmi.Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Len() != idx.Len() {
		t.Fatalf("Len = %d, want %d", loaded.Len(), idx.Len())
	}
	for _, p := range pts[:100] {
		if !loaded.PointQuery(p) {
			t.Fatalf("loaded facade index lost %v", p)
		}
	}
	if _, err := rsmi.Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("Load accepted junk")
	}
}

// refuseOldFormat rewrites the magic of every RSMIv7 stream in a snapshot
// of an index and of a sharded index to magic, and checks that both loaders
// refuse the result with want, in words that say why and what to do.
func refuseOldFormat(t *testing.T, magic string, want error, why string) {
	t.Helper()
	pts := dataset.Generate(dataset.Uniform, 600, 5)
	opts := rsmi.Options{BlockCapacity: 50, PartitionThreshold: 500, Epochs: 5, LearningRate: 0.1, Seed: 1}
	downgrade := func(w interface {
		WriteTo(io.Writer) (int64, error)
	}) []byte {
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		out := bytes.ReplaceAll(buf.Bytes(), []byte("RSMIv7\x00\x00"), []byte(magic+"\x00\x00"))
		if bytes.Equal(out, buf.Bytes()) {
			t.Fatal("snapshot holds no RSMIv7 magic to downgrade")
		}
		return out
	}
	_, errIndex := rsmi.Load(bytes.NewReader(downgrade(rsmi.New(pts, opts))))
	_, errSharded := rsmi.LoadSharded(bytes.NewReader(downgrade(rsmi.NewSharded(pts, rsmi.ShardOptions{Shards: 2, Index: opts}))))
	for name, err := range map[string]error{"Load": errIndex, "LoadSharded": errSharded} {
		if !errors.Is(err, want) {
			t.Errorf("%s of a %s snapshot: %v, want %v", name, magic, err, want)
		} else if !strings.Contains(err.Error(), why) || !strings.Contains(err.Error(), "rebuild") {
			t.Errorf("%s: the refusal %q does not say why or what to do", name, err)
		}
	}
}

// TestLoadRefusesV1: a snapshot saved in the RSMIv1 format — network weights
// plus a normalisation rectangle per sub-model — is refused by both loaders
// with ErrSnapshotV1, whose text tells the operator why and what to do.
func TestLoadRefusesV1(t *testing.T) {
	refuseOldFormat(t, "RSMIv1", rsmi.ErrSnapshotV1, "error bounds")
}

// TestLoadRefusesV2: a snapshot saved in the RSMIv2 format — no point spans
// — is refused by both loaders with ErrSnapshotV2, whose text tells the
// operator why and what to do.
func TestLoadRefusesV2(t *testing.T) {
	refuseOldFormat(t, "RSMIv2", rsmi.ErrSnapshotV2, "spans")
}

// TestLoadRefusesV3: a snapshot saved in the RSMIv3 format — a trained model
// at every internal node — is refused by both loaders with ErrSnapshotV3,
// whose text tells the operator why and what to do.
func TestLoadRefusesV3(t *testing.T) {
	refuseOldFormat(t, "RSMIv3", rsmi.ErrSnapshotV3, "cuts")
}

// TestLoadRefusesV4: a snapshot saved in the RSMIv4 format — a trained model
// at every leaf — is refused by both loaders with ErrSnapshotV4, whose text
// tells the operator why and what to do.
func TestLoadRefusesV4(t *testing.T) {
	refuseOldFormat(t, "RSMIv4", rsmi.ErrSnapshotV4, "cells")
}

// TestLoadRefusesV5: a snapshot saved in the RSMIv5 format — each leaf
// owning one range of block ids — is refused by both loaders with
// ErrSnapshotV5, whose text tells the operator why and what to do.
func TestLoadRefusesV5(t *testing.T) {
	refuseOldFormat(t, "RSMIv5", rsmi.ErrSnapshotV5, "block")
}

// TestLoadRefusesV6: a snapshot saved in the RSMIv6 format — the PMFs of
// Algorithm 3's kNN search behind the block MBRs — is refused by both
// loaders with ErrSnapshotV6, whose text tells the operator why and what to
// do.
func TestLoadRefusesV6(t *testing.T) {
	refuseOldFormat(t, "RSMIv6", rsmi.ErrSnapshotV6, "PMFs")
}
