package rsmi_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
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

// refusal is one old or newer snapshot and the loader that must refuse it.
type refusal struct {
	load    func(io.Reader) error
	snap    []byte
	version string
}

func loadIndex(r io.Reader) error   { _, err := rsmi.Load(r); return err }
func loadSharded(r io.Reader) error { _, err := rsmi.LoadSharded(r); return err }

// seedRefusals returns, for the committed FuzzLoadSharded seed
// rsmiv<v>-1shard — an RSMISh1 file holding one RSMIv<v> shard stream, the
// last that format wrote — the file for LoadSharded and its stream for Load.
func seedRefusals(t *testing.T, v int) map[string]refusal {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("internal", "shard", "testdata", "fuzz", "FuzzLoadSharded", fmt.Sprintf("rsmiv%d-1shard", v)))
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
	file, err := strconv.Unquote(body)
	stream := fmt.Sprintf("RSMIv%d", v)
	at := strings.Index(file, stream+"\x00")
	if err != nil || at < 0 {
		t.Fatalf("rsmiv%d-1shard: no %s stream in the corpus file (%v)", v, stream, err)
	}
	return map[string]refusal{
		"LoadSharded " + stream: {loadSharded, []byte(file), "RSMISh1"},
		"Load " + stream:        {loadIndex, []byte(file[at:]), stream},
	}
}

// rewrittenRefusals returns a snapshot of an index and of a sharded index
// of this version, with every magic from rewritten to magic to, for Load
// and LoadSharded; the refusal must name want.
func rewrittenRefusals(t *testing.T, from, to, want string) map[string]refusal {
	t.Helper()
	pts := dataset.Generate(dataset.Uniform, 600, 5)
	opts := rsmi.Options{BlockCapacity: 50, PartitionThreshold: 500}
	var index, sharded bytes.Buffer
	if _, err := rsmi.New(pts, opts).WriteTo(&index); err != nil {
		t.Fatal(err)
	}
	if _, err := rsmi.NewSharded(pts, rsmi.ShardOptions{Shards: 2, Index: opts}).WriteTo(&sharded); err != nil {
		t.Fatal(err)
	}
	out := map[string]refusal{}
	for name, snap := range map[string]*bytes.Buffer{"Load": &index, "LoadSharded": &sharded} {
		rewritten := bytes.ReplaceAll(snap.Bytes(), []byte(from), []byte(to))
		if bytes.Equal(rewritten, snap.Bytes()) {
			continue
		}
		load := loadIndex
		if name == "LoadSharded" {
			load = loadSharded
		}
		out[name+" "+to] = refusal{load, rewritten, want}
	}
	if len(out) == 0 {
		t.Fatalf("no snapshot holds %s to rewrite", from)
	}
	return out
}

// refuse checks that every refusal's loader refuses its snapshot with
// ErrSnapshotVersion, in words that name the version found and say what to
// do.
func refuse(t *testing.T, cases map[string]refusal) {
	t.Helper()
	for name, c := range cases {
		err := c.load(bytes.NewReader(c.snap))
		if !errors.Is(err, rsmi.ErrSnapshotVersion) || !strings.Contains(err.Error(), c.version) || !strings.Contains(err.Error(), "rebuild") {
			t.Errorf("%s: %v, want ErrSnapshotVersion naming %s and saying what to do", name, err, c.version)
		}
	}
}

// TestLoadRefusesV1: a snapshot saved in the RSMIv1 format — network weights
// plus a normalisation rectangle per sub-model — is refused by both loaders
// with ErrSnapshotVersion. No RSMIv1 seed is committed, so the snapshots
// are this version's with every index stream's magic rewritten.
func TestLoadRefusesV1(t *testing.T) {
	refuse(t, rewrittenRefusals(t, "RSMIv8\x00", "RSMIv1\x00", "RSMIv1"))
}

// TestLoadRefusesV2: a snapshot saved in the RSMIv2 format — no point spans
// — is refused by both loaders with ErrSnapshotVersion.
func TestLoadRefusesV2(t *testing.T) { refuse(t, seedRefusals(t, 2)) }

// TestLoadRefusesV3: a snapshot saved in the RSMIv3 format — a trained model
// at every internal node — is refused by both loaders with
// ErrSnapshotVersion.
func TestLoadRefusesV3(t *testing.T) { refuse(t, seedRefusals(t, 3)) }

// TestLoadRefusesV4: a snapshot saved in the RSMIv4 format — a trained model
// at every leaf — is refused by both loaders with ErrSnapshotVersion.
func TestLoadRefusesV4(t *testing.T) { refuse(t, seedRefusals(t, 4)) }

// TestLoadRefusesV5: a snapshot saved in the RSMIv5 format — each leaf
// owning one range of block ids — is refused by both loaders with
// ErrSnapshotVersion.
func TestLoadRefusesV5(t *testing.T) { refuse(t, seedRefusals(t, 5)) }

// TestLoadRefusesV6: a snapshot saved in the RSMIv6 format — the PMFs of
// Algorithm 3's kNN search behind the block MBRs — is refused by both
// loaders with ErrSnapshotVersion.
func TestLoadRefusesV6(t *testing.T) { refuse(t, seedRefusals(t, 6)) }

// TestLoadRefusesOldVersions: both loaders refuse a snapshot of any other
// format than RSMIv8 index streams and RSMISh2 sharded files with
// ErrSnapshotVersion. RSMIv1-v6 have tests of their own; this one covers
// the formats since — the RSMIv7 seed — and newer ones: this version's
// snapshots with the magic rewritten. A format bump adds the last seed the
// old format wrote here.
func TestLoadRefusesOldVersions(t *testing.T) {
	cases := seedRefusals(t, 7)
	for name, c := range rewrittenRefusals(t, "RSMIv8\x00", "RSMIv9\x00", "RSMIv9") {
		cases[name] = c
	}
	for name, c := range rewrittenRefusals(t, "RSMISh2\x00", "RSMISh3\x00", "RSMISh3") {
		cases[name] = c
	}
	refuse(t, cases)
}
