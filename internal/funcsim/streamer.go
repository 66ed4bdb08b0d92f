package funcsim

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/gltrace"
	"repro/internal/pool"
	"repro/internal/raster"
	"repro/internal/shader"
)

// Streamer characterizes frames of a trace on demand — the incremental
// twin of RunObs. It owns the reusable rasterization scratch (depth
// buffer, triangle buffer, per-draw transform buffer and quad batch), so
// re-profiling a frame into a profile whose count vectors are already
// sized allocates nothing. Frames are characterized independently: the
// depth buffer is cleared and all binding state reset at every frame
// start, so profiling frame f is a pure function of frame f's commands
// and the trace resources. That independence is what lets ProfileRange
// fan a window of frames out over workers, one Streamer clone each.
//
// This is what lets the streaming sampler (internal/stream) consume an
// unbounded frame sequence with O(1) characterization state instead of
// materializing a whole funcsim.Result. A Streamer is not safe for
// concurrent use.
type Streamer struct {
	trace  *gltrace.Trace
	depth  *raster.DepthBuffer
	clip   geom.AABB2
	triBuf []raster.ScreenTriangle
	draw   raster.DrawScratch
	batch  raster.QuadBatch
	// sampler and the exec results are per-draw shader execution
	// scratch, fields so executing a draw's programs does not allocate.
	sampler      proceduralSampler
	vsOut, fsOut shader.ExecResult

	vsStatic []shader.Cost
	fsStatic []shader.Cost
	// clones are ProfileRange's extra workers, kept so repeated windows
	// reuse their grown scratch instead of allocating new.
	clones []*Streamer
}

// NewStreamer builds a streamer over a trace. The trace must validate;
// its frames are profiled on demand with ProfileAt and ProfileRange.
func NewStreamer(tr *gltrace.Trace) (*Streamer, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	s := newScratch(tr)
	for _, p := range tr.VertexShaders {
		s.vsStatic = append(s.vsStatic, p.StaticCost())
	}
	for _, p := range tr.FragmentShaders {
		s.fsStatic = append(s.fsStatic, p.StaticCost())
	}
	return s, nil
}

// newScratch returns a streamer over tr with fresh rasterization
// scratch and no static costs.
func newScratch(tr *gltrace.Trace) *Streamer {
	vp := tr.Viewport
	return &Streamer{
		trace: tr,
		depth: raster.NewDepthBuffer(vp.Width, vp.Height),
		clip:  geom.AABB2{Max: geom.Vec2{X: float64(vp.Width), Y: float64(vp.Height)}},
	}
}

// Static returns the per-program static costs (instruction counts and
// texture weights), the first thing the paper's characterization pass
// collects and the only global state the streaming sampler needs before
// the first frame arrives.
func (s *Streamer) Static() (vs, fs []shader.Cost) { return s.vsStatic, s.fsStatic }

// Name returns the workload name of the streamer's trace.
func (s *Streamer) Name() string { return s.trace.Name }

// NumFrames returns the trace length.
func (s *Streamer) NumFrames() int { return s.trace.NumFrames() }

// ProfileAt profiles frame f of the streamer's trace into dst. The trace
// was validated whole at NewStreamer, so no per-frame re-validation
// happens here.
func (s *Streamer) ProfileAt(dst *FrameProfile, f int) error {
	if f < 0 || f >= s.trace.NumFrames() {
		return fmt.Errorf("funcsim: frame %d out of range [0,%d)", f, s.trace.NumFrames())
	}
	s.profileInto(dst, &s.trace.Frames[f], f)
	return nil
}

// ProfileRange profiles frames first … first+len(dst)-1 into dst, dst[i]
// receiving frame first+i, frame-parallel on GOMAXPROCS pool workers.
// Worker 0 is s itself; the others are clones cached on s, so repeated
// windows into already-sized profiles allocate nothing per frame. Each
// profile is a pure function of its frame, so dst is byte-identical to
// a serial ProfileAt loop whichever worker profiled which frame.
//
// An empty or out-of-range window returns an error before touching dst.
// Cancelling ctx stops the pool at its next claim and returns ctx's
// error; dst is then only partly written and must be discarded.
func (s *Streamer) ProfileRange(ctx context.Context, dst []FrameProfile, first int) error {
	n := len(dst)
	if n == 0 || first < 0 || first > s.trace.NumFrames()-n {
		return fmt.Errorf("funcsim: frame window [%d,%d) empty or out of range [0,%d)", first, first+n, s.trace.NumFrames())
	}
	workers := pool.Workers(0, n)
	for len(s.clones) < workers-1 {
		s.clones = append(s.clones, newScratch(s.trace))
	}
	_, err := pool.Run(ctx, workers, n, func(w int) (func(int), error) {
		ws := s
		if w > 0 {
			ws = s.clones[w-1]
		}
		return func(i int) { ws.profileInto(&dst[i], &s.trace.Frames[first+i], first+i) }, nil
	})
	return err
}

// profileInto characterizes one frame's command stream into dst,
// reusing dst's count slices when their lengths match: the per-frame
// body ProfileAt and ProfileRange share.
func (s *Streamer) profileInto(dst *FrameProfile, frame *gltrace.Frame, index int) {
	*dst = FrameProfile{Frame: index, VSCount: resizeU64(dst.VSCount, len(s.trace.VertexShaders)), FSCount: resizeU64(dst.FSCount, len(s.trace.FragmentShaders))}
	s.depth.Clear()

	curVS, curFS := -1, -1
	curTex := 0
	for ci := range frame.Commands {
		cmd := &frame.Commands[ci]
		switch cmd.Op {
		case gltrace.CmdBindProgram:
			curVS, curFS = cmd.VS, cmd.FS
		case gltrace.CmdBindTexture:
			if cmd.Unit == 0 {
				curTex = cmd.Texture
			}
		case gltrace.CmdClear:
			s.depth.Clear()
		case gltrace.CmdDraw:
			mesh := &s.trace.Meshes[cmd.Mesh]
			dst.VSCount[curVS] += uint64(len(mesh.Vertices))

			// Functionally execute the bound programs once per draw
			// with draw-derived inputs; lock-step warps make all
			// invocations of a draw structurally identical, so one
			// execution yields the per-draw functional digest.
			s.trace.VertexShaders[curVS].ExecInto(&s.vsOut, shader.Regs{
				cmd.MVP[3], cmd.MVP[7], cmd.MVP[11], cmd.DepthBias,
			}, nil)
			s.sampler.tex = curTex
			s.trace.FragmentShaders[curFS].ExecInto(&s.fsOut, shader.Regs{
				cmd.MVP[3], cmd.MVP[7], 0.5, 0.5,
			}, &s.sampler)
			dst.Checksum = mixChecksum(dst.Checksum, s.vsOut.Regs, s.fsOut.Regs)

			tris, gstats := raster.ProcessDrawScratch(mesh, cmd.MVP, s.trace.Viewport, cmd.DepthBias, s.triBuf[:0], &s.draw)
			s.triBuf = tris
			dst.PrimsIn += uint64(gstats.PrimsIn)
			dst.PrimsVisible += uint64(gstats.Visible)

			b := &s.batch
			for t := range tris {
				b.Reset()
				b.AppendQuads(&tris[t], s.clip)
				for qi, n := 0, b.Len(); qi < n; qi++ {
					var surviving uint8
					if cmd.Blend {
						// Transparent fragments are depth-tested but
						// never write depth.
						surviving = s.depth.TestMaskReadOnly(int(b.X[qi]), int(b.Y[qi]), b.Depth[qi*4:qi*4+4], b.Mask[qi])
					} else {
						surviving = s.depth.TestMask(int(b.X[qi]), int(b.Y[qi]), b.Depth[qi*4:qi*4+4], b.Mask[qi])
					}
					alive := uint64(bits.OnesCount8(surviving))
					dst.FSCount[curFS] += alive
					dst.Fragments += alive
				}
			}
		}
	}
}

func resizeU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
