package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"rsmi/internal/geom"
)

func TestGenerateCardinalityAndRange(t *testing.T) {
	for _, kind := range All() {
		t.Run(kind.String(), func(t *testing.T) {
			pts := Generate(kind, 5000, 1)
			if len(pts) != 5000 {
				t.Fatalf("got %d points, want 5000", len(pts))
			}
			for _, p := range pts {
				if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
					t.Fatalf("point %v outside unit square", p)
				}
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, kind := range All() {
		a := Generate(kind, 1000, 7)
		b := Generate(kind, 1000, 7)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: generation not deterministic at %d", kind, i)
			}
		}
		c := Generate(kind, 1000, 8)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%v: different seeds produced identical data", kind)
		}
	}
}

func TestGenerateNoDuplicatePoints(t *testing.T) {
	for _, kind := range All() {
		pts := Generate(kind, 20000, 3)
		seen := make(map[geom.Point]struct{}, len(pts))
		for _, p := range pts {
			if _, dup := seen[p]; dup {
				t.Fatalf("%v: duplicate point %v", kind, p)
			}
			seen[p] = struct{}{}
		}
	}
}

// TestGenerateDigest pins the points every generator draws, bit for bit: a
// faster duplicate check must accept and refuse exactly the draws it did.
// The digests are of amd64 builds: other architectures may fuse
// multiply-adds inside math.Pow and the normal sampler.
func TestGenerateDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are of amd64 builds")
	}
	for _, c := range []struct {
		kind Kind
		want string
	}{
		{Uniform, "1ad826e8fa48d144d69f44a41b483cd91c0f4a3dcc9c4483251a8ef0903805dd"},
		{Normal, "f3071c70c8759a659385c000221c07a06113868b18a5cf0d082e5e132c565a19"},
		{Skewed, "e5684c9bf65ce5fae59c5d5ed3777f2b7b84f4472f006f0184450ef528b4730f"},
		{TigerLike, "09029fca4ffa0c189cb9d01c56f90e6af7fc71cf989ac5ab0a063272428ef17e"},
		{OSMLike, "04f8a7bfd6e4a10ca377c28e033897d7cdaec117b5ecf1b67f61276efd6983d5"},
	} {
		h := sha256.New()
		var buf [16]byte
		for _, p := range Generate(c.kind, 20_000, 5) {
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p.X))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Y))
			h.Write(buf[:])
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.want {
			t.Errorf("%v: sha256 %s, want %s", c.kind, got, c.want)
		}
	}
}

// TestDedupKeepsPointEquality: a point is a duplicate exactly when Go's ==
// on geom.Point says so, as for a map key. −0 equals +0, and a point with a
// NaN coordinate equals nothing, itself included.
func TestDedupKeepsPointEquality(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	d := newDedup(8)
	for _, c := range []struct {
		p     geom.Point
		fresh bool
	}{
		{geom.Pt(0, 0.5), true},
		{geom.Pt(negZero, 0.5), false},
		{geom.Pt(0.25, negZero), true},
		{geom.Pt(0.25, 0), false},
		{geom.Pt(nan, 0.5), true},
		{geom.Pt(nan, 0.5), true},
		{geom.Pt(0.5, nan), true},
		{geom.Pt(0.5, nan), true},
	} {
		if got := d.add(c.p); got != c.fresh {
			t.Errorf("add(%v) = %v, want %v", c.p, got, c.fresh)
		}
	}
}

// TestDedupFullOfCollisions fills a set to the n it was sized for with
// points built to collide under a hash of their bits: x stepping only its
// low mantissa bits, y stepping only its exponent, and x = y. Every point
// must be taken once and refused the second time.
func TestDedupFullOfCollisions(t *testing.T) {
	const n = 3000
	pts := make([]geom.Point, 0, n)
	for i := uint64(0); len(pts) < n; i++ {
		low := math.Float64frombits(0x3FE0000000000000 | i)
		pts = append(pts,
			geom.Pt(low, 0.25),
			geom.Pt(0.75, math.Float64frombits(i<<52)),
			geom.Pt(low, low))
	}
	d := newDedup(n)
	for i, p := range pts {
		if !d.add(p) {
			t.Fatalf("point %d %v refused the first time", i, p)
		}
	}
	for i, p := range pts {
		if d.add(p) {
			t.Fatalf("point %d %v taken twice", i, p)
		}
	}
}

var generateSink []geom.Point

// BenchmarkGenerate draws embed-read's point set: 200k skewed points.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateSink = Generate(Skewed, 200_000, 1)
	}
}

func TestUniformIsRoughlyUniform(t *testing.T) {
	pts := Generate(Uniform, 40000, 5)
	// Quadrant counts should be near n/4.
	var q [4]int
	for _, p := range pts {
		i := 0
		if p.X >= 0.5 {
			i |= 1
		}
		if p.Y >= 0.5 {
			i |= 2
		}
		q[i]++
	}
	for i, c := range q {
		if math.Abs(float64(c)-10000) > 600 {
			t.Errorf("quadrant %d count %d deviates from 10000", i, c)
		}
	}
}

func TestNormalConcentratesAtCentre(t *testing.T) {
	pts := Generate(Normal, 20000, 6)
	centre := 0
	for _, p := range pts {
		if math.Abs(p.X-0.5) < 0.25 && math.Abs(p.Y-0.5) < 0.25 {
			centre++
		}
	}
	// For sigma = 1/6, ~86% of each coordinate lies within ±1.5 sigma.
	if frac := float64(centre) / float64(len(pts)); frac < 0.6 {
		t.Errorf("only %.2f of normal points near centre", frac)
	}
}

func TestSkewedPushesMassDown(t *testing.T) {
	pts := Generate(Skewed, 20000, 7)
	below := 0
	for _, p := range pts {
		if p.Y < 0.1 {
			below++
		}
	}
	// P(u^4 < 0.1) = 0.1^(1/4) ~ 0.56.
	frac := float64(below) / float64(len(pts))
	if frac < 0.5 || frac > 0.62 {
		t.Errorf("skewed mass below y=0.1 is %.3f, want ~0.56", frac)
	}
}

func TestTigerLikeClustersOnCorridors(t *testing.T) {
	// Corridor data has many points sharing nearly identical x or y; measure
	// by comparing coordinate histogram peaks against uniform.
	pts := Generate(TigerLike, 20000, 8)
	const bins = 200
	var hx [bins]int
	for _, p := range pts {
		b := int(p.X * bins)
		if b == bins {
			b--
		}
		hx[b]++
	}
	max := 0
	for _, c := range hx {
		if c > max {
			max = c
		}
	}
	mean := len(pts) / bins
	if max < 4*mean {
		t.Errorf("tiger-like x histogram peak %d not >> mean %d; corridors missing", max, mean)
	}
}

func TestOSMLikeIsHeavyTailed(t *testing.T) {
	pts := Generate(OSMLike, 30000, 9)
	const bins = 64
	var h [bins][bins]int
	for _, p := range pts {
		bx, by := int(p.X*bins), int(p.Y*bins)
		if bx == bins {
			bx--
		}
		if by == bins {
			by--
		}
		h[bx][by]++
	}
	max, occupied := 0, 0
	for i := 0; i < bins; i++ {
		for j := 0; j < bins; j++ {
			if h[i][j] > 0 {
				occupied++
			}
			if h[i][j] > max {
				max = h[i][j]
			}
		}
	}
	mean := float64(len(pts)) / float64(bins*bins)
	if float64(max) < 40*mean {
		t.Errorf("osm-like max cell %d not heavy-tailed vs mean %.1f", max, mean)
	}
}

func TestKindStringAndParse(t *testing.T) {
	for _, kind := range All() {
		got, err := Parse(kind.String())
		if err != nil || got != kind {
			t.Errorf("Parse(%q) = %v, %v", kind.String(), got, err)
		}
	}
	for s, want := range map[string]Kind{
		"uni": Uniform, "nor": Normal, "ske": Skewed, "tig": TigerLike, "osm": OSMLike,
	} {
		got, err := Parse(s)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := Parse("nope"); err == nil {
		t.Error("Parse of unknown kind must error")
	}
	if Kind(42).String() != "dataset.Kind(42)" {
		t.Error("unknown Kind String mismatch")
	}
}

func TestGeneratePanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Generate(unknown) must panic")
		}
	}()
	Generate(Kind(42), 10, 1)
}

func TestWriteReadRoundTrip(t *testing.T) {
	pts := Generate(Skewed, 1234, 10)
	var buf bytes.Buffer
	if err := WritePoints(&buf, pts); err != nil {
		t.Fatalf("WritePoints: %v", err)
	}
	got, err := ReadPoints(&buf)
	if err != nil {
		t.Fatalf("ReadPoints: %v", err)
	}
	if len(got) != len(pts) {
		t.Fatalf("round trip count %d != %d", len(got), len(pts))
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestReadPointsRejectsGarbage(t *testing.T) {
	if _, err := ReadPoints(bytes.NewReader([]byte("not a point file"))); err == nil {
		t.Error("bad magic must error")
	}
	if _, err := ReadPoints(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must error")
	}
	// Truncated payload.
	var buf bytes.Buffer
	if err := WritePoints(&buf, Generate(Uniform, 10, 1)); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadPoints(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input must error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.bin")
	pts := Generate(Normal, 500, 11)
	if err := SaveFile(path, pts); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if len(got) != len(pts) || got[0] != pts[0] || got[499] != pts[499] {
		t.Error("file round trip mismatch")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("loading missing file must error")
	}
}
