package raster

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/geom"
	"repro/internal/scene"
)

var testVP = geom.Viewport{Width: 64, Height: 64}

func fullscreenClip() geom.AABB2 {
	return geom.AABB2{Max: geom.Vec2{X: 64, Y: 64}}
}

func TestProcessDrawIdentityQuad(t *testing.T) {
	// An identity-transformed unit quad maps to the middle quarter of
	// NDC and must survive with 2 visible triangles.
	q := scene.Quad("q")
	tris, st := ProcessDraw(&q, geom.IdentityMat4(), testVP, 0, nil)
	if st.Visible != 2 || len(tris) != 2 {
		t.Fatalf("visible = %d (stats %+v)", len(tris), st)
	}
	if st.VerticesIn != 4 || st.PrimsIn != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestProcessDrawRejectsBehindCamera(t *testing.T) {
	q := scene.Quad("q")
	// Push the quad behind the camera with a perspective projection.
	proj := geom.Perspective(math.Pi/3, 1, 0.1, 100)
	mvp := proj.Mul(geom.Translate(geom.Vec3{Z: 5})) // +Z is behind
	_, st := ProcessDraw(&q, mvp, testVP, 0, nil)
	if st.Visible != 0 || st.Rejected != 2 {
		t.Fatalf("stats %+v, want all rejected", st)
	}
}

func TestProcessDrawRejectsOffscreen(t *testing.T) {
	q := scene.Quad("q")
	mvp := geom.Translate(geom.Vec3{X: 10}) // NDC x ~ 10: far off right
	_, st := ProcessDraw(&q, mvp, testVP, 0, nil)
	if st.Visible != 0 {
		t.Fatalf("stats %+v, want none visible", st)
	}
}

func TestProcessDrawCullsDegenerate(t *testing.T) {
	q := scene.Quad("q")
	mvp := geom.ScaleXYZ(geom.Vec3{X: 0, Y: 1, Z: 1}) // collapse X
	_, st := ProcessDraw(&q, mvp, testVP, 0, nil)
	if st.Degenerate != 2 {
		t.Fatalf("stats %+v, want 2 degenerate", st)
	}
}

func TestProcessDrawDepthBias(t *testing.T) {
	q := scene.Quad("q")
	tris, _ := ProcessDraw(&q, geom.IdentityMat4(), testVP, 0.25, nil)
	for _, tr := range tris {
		for _, v := range tr.Tri.V {
			if math.Abs(v.Z-0.75) > 1e-9 { // base depth 0.5 + bias
				t.Fatalf("depth = %v, want 0.75", v.Z)
			}
		}
	}
}

// rasterize returns tri's quads within clip in a fresh batch.
func rasterize(tri *ScreenTriangle, clip geom.AABB2) *QuadBatch {
	b := new(QuadBatch)
	b.AppendQuads(tri, clip)
	return b
}

// coverage counts the covered samples of every quad in b.
func coverage(b *QuadBatch) int {
	n := 0
	for _, m := range b.Mask {
		n += bits.OnesCount8(m)
	}
	return n
}

func TestRasterizeQuadsFullCoverage(t *testing.T) {
	// A triangle covering the whole left-lower half of a 16x16 region.
	tri := ScreenTriangle{
		Tri: geom.Triangle2{V: [3]geom.Vec3{v3(0, 0, 0.5), v3(16, 0, 0.5), v3(0, 16, 0.5)}},
	}
	b := rasterize(&tri, geom.AABB2{Max: geom.Vec2{X: 16, Y: 16}})
	// Half of 256 pixels ~ 128; allow boundary slack.
	if fragments := coverage(b); fragments < 110 || fragments > 140 {
		t.Fatalf("fragments = %d, want ~128", fragments)
	}
	if quads := b.Len(); quads == 0 || quads > 64 {
		t.Fatalf("quads = %d", quads)
	}
}

func TestRasterizeQuadsClipRestricts(t *testing.T) {
	tri := ScreenTriangle{
		Tri: geom.Triangle2{V: [3]geom.Vec3{v3(0, 0, 0), v3(64, 0, 0), v3(0, 64, 0)}},
	}
	full := coverage(rasterize(&tri, geom.AABB2{Max: geom.Vec2{X: 64, Y: 64}}))
	tile := coverage(rasterize(&tri, geom.AABB2{Min: geom.Vec2{X: 0, Y: 0}, Max: geom.Vec2{X: 32, Y: 32}}))
	if tile >= full || tile == 0 {
		t.Fatalf("tile coverage %d vs full %d", tile, full)
	}
}

func TestRasterizeQuadsTilePartitionExact(t *testing.T) {
	// Rasterizing per 16px tile must reproduce exactly the full-screen
	// fragment count: the per-tile union partitions coverage. The tiles
	// append into one reused batch, as the tile simulator's loop does.
	tri := ScreenTriangle{
		Tri: geom.Triangle2{V: [3]geom.Vec3{v3(3, 5, 0), v3(61, 17, 0), v3(22, 59, 0)}},
	}
	full := coverage(rasterize(&tri, fullscreenClip()))
	tiled := 0
	var b QuadBatch
	for ty := 0; ty < 4; ty++ {
		for tx := 0; tx < 4; tx++ {
			clip := geom.AABB2{
				Min: geom.Vec2{X: float64(tx * 16), Y: float64(ty * 16)},
				Max: geom.Vec2{X: float64(tx*16 + 16), Y: float64(ty*16 + 16)},
			}
			b.Reset()
			b.AppendQuads(&tri, clip)
			tiled += coverage(&b)
		}
	}
	if full == 0 || tiled != full {
		t.Fatalf("tiled = %d, full = %d", tiled, full)
	}
}

func TestRasterizeQuadsOutsideClip(t *testing.T) {
	tri := ScreenTriangle{
		Tri: geom.Triangle2{V: [3]geom.Vec3{v3(100, 100, 0), v3(110, 100, 0), v3(100, 110, 0)}},
	}
	if n := rasterize(&tri, fullscreenClip()).Len(); n != 0 {
		t.Fatalf("quads outside clip = %d", n)
	}
}

func TestQuadCoverage(t *testing.T) {
	// The edge x+y = 3 crosses the quad at the origin between its last
	// sample (1.5, 1.5) and the other three, so the mask holds exactly
	// samples 0, 1 and 2, each with the triangle's depth.
	tri := ScreenTriangle{
		Tri: geom.Triangle2{V: [3]geom.Vec3{v3(0, 0, 0.25), v3(3, 0, 0.25), v3(0, 3, 0.25)}},
	}
	b := rasterize(&tri, geom.AABB2{Max: geom.Vec2{X: 2, Y: 2}})
	if b.Len() != 1 || b.X[0] != 0 || b.Y[0] != 0 {
		t.Fatalf("quads = %d at (%v, %v), want one at the origin", b.Len(), b.X, b.Y)
	}
	if b.Mask[0] != 0b0111 || coverage(b) != 3 {
		t.Fatalf("mask = %04b, want 0111", b.Mask[0])
	}
	for s := 0; s < 3; s++ {
		if math.Abs(b.Depth[s]-0.25) > 1e-12 {
			t.Fatalf("sample %d depth = %v, want 0.25", s, b.Depth[s])
		}
	}
}

func TestQuadUVInterpolation(t *testing.T) {
	tri := ScreenTriangle{
		Tri: geom.Triangle2{V: [3]geom.Vec3{v3(0, 0, 0), v3(32, 0, 0), v3(0, 32, 0)}},
		UV:  [3]geom.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}},
	}
	b := rasterize(&tri, fullscreenClip())
	if b.Len() == 0 {
		t.Fatal("no quads")
	}
	for i := 0; i < b.Len(); i++ {
		wantU := (float64(b.X[i]) + 1) / 32
		wantV := (float64(b.Y[i]) + 1) / 32
		if math.Abs(b.U[i]-wantU) > 1e-9 || math.Abs(b.V[i]-wantV) > 1e-9 {
			t.Fatalf("quad (%d,%d) UV = (%v,%v), want (%v,%v)", b.X[i], b.Y[i], b.U[i], b.V[i], wantU, wantV)
		}
	}
}

func TestDepthBufferBasics(t *testing.T) {
	d := NewDepthBuffer(4, 4)
	if !d.TestAndSet(1, 1, 0.5) {
		t.Fatal("first write should pass")
	}
	if d.TestAndSet(1, 1, 0.7) {
		t.Fatal("farther fragment should fail")
	}
	if !d.TestAndSet(1, 1, 0.3) {
		t.Fatal("nearer fragment should pass")
	}
	if d.TestAndSet(-1, 0, 0.1) || d.TestAndSet(4, 0, 0.1) {
		t.Fatal("out-of-bounds should fail")
	}
	d.Clear()
	if !d.TestAndSet(1, 1, 0.9) {
		t.Fatal("after Clear any depth should pass")
	}
}

func TestDepthBufferTestQuad(t *testing.T) {
	d := NewDepthBuffer(4, 4)
	half := []float64{0.5, 0.5, 0.5, 0.5}
	if got := d.TestMask(0, 0, half, 0b1111); got != 0b1111 {
		t.Fatalf("first quad mask = %b", got)
	}
	// Same quad again: fully occluded.
	if got := d.TestMask(0, 0, half, 0b1111); got != 0 {
		t.Fatalf("occluded quad mask = %b", got)
	}
	// Nearer on two samples only; a read-only test passes them without
	// writing, so the writing test that follows passes them too.
	near := []float64{0.2, 0.2, 0, 0}
	if got := d.TestMaskReadOnly(0, 0, near, 0b0011); got != 0b0011 {
		t.Fatalf("read-only partial quad mask = %b", got)
	}
	if got := d.TestMask(0, 0, near, 0b0011); got != 0b0011 {
		t.Fatalf("partial quad mask = %b", got)
	}
	if got := d.TestMaskReadOnly(0, 0, near, 0b0011); got != 0 {
		t.Fatalf("written samples still pass: mask = %b", got)
	}
	// A quad straddling the buffer edge passes only its in-bounds samples.
	if got := d.TestMask(3, 3, near, 0b1111); got != 0b0001 {
		t.Fatalf("edge quad mask = %b", got)
	}
}

func TestOverdrawOrderMatters(t *testing.T) {
	// Front-to-back: second (farther) surface fully occluded.
	d := NewDepthBuffer(16, 16)
	near := ScreenTriangle{Tri: geom.Triangle2{V: [3]geom.Vec3{v3(0, 0, 0.2), v3(16, 0, 0.2), v3(0, 16, 0.2)}}}
	far := ScreenTriangle{Tri: geom.Triangle2{V: [3]geom.Vec3{v3(0, 0, 0.8), v3(16, 0, 0.8), v3(0, 16, 0.8)}}}
	shaded := 0
	clip := geom.AABB2{Max: geom.Vec2{X: 16, Y: 16}}
	for _, tri := range []*ScreenTriangle{&near, &far} {
		b := rasterize(tri, clip)
		for i := 0; i < b.Len(); i++ {
			shaded += bits.OnesCount8(d.TestMask(int(b.X[i]), int(b.Y[i]), b.Depth[i*4:i*4+4], b.Mask[i]))
		}
	}
	if firstOnly := coverage(rasterize(&near, clip)); shaded != firstOnly {
		t.Fatalf("shaded %d, want %d (far surface should be fully culled)", shaded, firstOnly)
	}
}

func TestProcessDrawAppendReusesSlice(t *testing.T) {
	q := scene.Quad("q")
	buf := make([]ScreenTriangle, 0, 16)
	tris, _ := ProcessDraw(&q, geom.IdentityMat4(), testVP, 0, buf)
	if len(tris) != 2 {
		t.Fatalf("len = %d", len(tris))
	}
	if &tris[0] != &buf[:1][0] {
		t.Fatal("output did not reuse provided backing array")
	}
}

func TestProcessDrawLargeMeshCounts(t *testing.T) {
	g := scene.Sphere("s", 6, 8)
	mvp := geom.Orthographic(-1, 1, -1, 1, -2, 2)
	tris, st := ProcessDraw(&g, mvp, testVP, 0, nil)
	if st.PrimsIn != g.TriangleCount() {
		t.Fatalf("PrimsIn = %d, want %d", st.PrimsIn, g.TriangleCount())
	}
	if st.Visible+st.Rejected+st.Degenerate != st.PrimsIn {
		t.Fatalf("stats don't partition: %+v", st)
	}
	if len(tris) != st.Visible {
		t.Fatalf("len(tris) = %d, Visible = %d", len(tris), st.Visible)
	}
	if st.Visible == 0 {
		t.Fatal("sphere should be visible")
	}
}

// v3 builds a geom.Vec3 from screen-space x, y and depth z.
func v3(x, y, z float64) geom.Vec3 {
	return geom.Vec3{X: x, Y: y, Z: z}
}
