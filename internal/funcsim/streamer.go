package funcsim

import (
	"fmt"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/gltrace"
	"repro/internal/raster"
	"repro/internal/shader"
)

// Streamer characterizes frames one at a time — the incremental twin of
// RunObs. It owns the reusable rasterization scratch (depth buffer,
// triangle buffer, per-draw transform buffer and quad batch), so
// re-profiling a frame into a profile whose count vectors are already
// sized allocates nothing. Frames are characterized independently: the
// depth buffer is cleared and all binding state reset at every frame
// start, so ProfileInto(f) is a pure function of frame f's commands and
// the trace resources. That independence is what lets RunObs fan frames
// out over workers, one Streamer clone each.
//
// This is what lets the streaming sampler (internal/stream) consume an
// unbounded frame sequence with O(1) characterization state instead of
// materializing a whole funcsim.Result. A Streamer is not safe for
// concurrent use; concurrent callers each take a clone.
type Streamer struct {
	res    resources
	trace  *gltrace.Trace // nil in resource mode
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
}

// resources is the frame-independent part of a trace: everything a
// single frame's command stream references.
type resources struct {
	name     string
	viewport geom.Viewport
	vs, fs   []*shader.Program
	meshes   []gltrace.Mesh
	textures []gltrace.Texture
}

// NewStreamer builds a streamer over a trace's resources. The trace
// must validate; its frames are profiled on demand with ProfileAt.
func NewStreamer(tr *gltrace.Trace) (*Streamer, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return newStreamer(resources{
		name:     tr.Name,
		viewport: tr.Viewport,
		vs:       tr.VertexShaders,
		fs:       tr.FragmentShaders,
		meshes:   tr.Meshes,
		textures: tr.Textures,
	}, tr)
}

// NewResourceStreamer builds a streamer from bare resources, for frame
// streams that arrive without a containing trace (the megsimd
// chunked-upload endpoint). The resources are validated by wrapping
// them in a zero-frame trace.
func NewResourceStreamer(name string, vp geom.Viewport, vs, fs []*shader.Program, meshes []gltrace.Mesh, textures []gltrace.Texture) (*Streamer, error) {
	probe := &gltrace.Trace{
		Name:            name,
		Viewport:        vp,
		VertexShaders:   vs,
		FragmentShaders: fs,
		Meshes:          meshes,
		Textures:        textures,
	}
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	return newStreamer(resources{
		name: name, viewport: vp, vs: vs, fs: fs, meshes: meshes, textures: textures,
	}, nil)
}

func newStreamer(res resources, tr *gltrace.Trace) (*Streamer, error) {
	s := &Streamer{
		res:   res,
		depth: raster.NewDepthBuffer(res.viewport.Width, res.viewport.Height),
		clip: geom.AABB2{Max: geom.Vec2{
			X: float64(res.viewport.Width), Y: float64(res.viewport.Height),
		}},
	}
	s.trace = tr
	for _, p := range res.vs {
		s.vsStatic = append(s.vsStatic, p.StaticCost())
	}
	for _, p := range res.fs {
		s.fsStatic = append(s.fsStatic, p.StaticCost())
	}
	return s, nil
}

// clone returns a streamer over the same resources, trace and static
// costs with its own rasterization scratch, for a concurrent worker.
// The resources were validated when s was built, so nothing is
// re-validated.
func (s *Streamer) clone() *Streamer {
	return &Streamer{
		res:      s.res,
		trace:    s.trace,
		depth:    raster.NewDepthBuffer(s.res.viewport.Width, s.res.viewport.Height),
		clip:     s.clip,
		vsStatic: s.vsStatic,
		fsStatic: s.fsStatic,
	}
}

// Static returns the per-program static costs (instruction counts and
// texture weights), the first thing the paper's characterization pass
// collects and the only global state the streaming sampler needs before
// the first frame arrives.
func (s *Streamer) Static() (vs, fs []shader.Cost) { return s.vsStatic, s.fsStatic }

// Name returns the workload name of the streamer's resources.
func (s *Streamer) Name() string { return s.res.name }

// NumFrames returns the trace length (0 in resource mode).
func (s *Streamer) NumFrames() int {
	if s.trace == nil {
		return 0
	}
	return s.trace.NumFrames()
}

// ProfileAt profiles frame f of the streamer's trace into dst. Only
// valid for trace-backed streamers. The trace was validated whole at
// NewStreamer, so no per-frame re-validation happens here.
func (s *Streamer) ProfileAt(dst *FrameProfile, f int) error {
	if s.trace == nil {
		return fmt.Errorf("funcsim: streamer has no trace (resource mode)")
	}
	if f < 0 || f >= s.trace.NumFrames() {
		return fmt.Errorf("funcsim: frame %d out of range [0,%d)", f, s.trace.NumFrames())
	}
	s.profileInto(dst, &s.trace.Frames[f], f)
	return nil
}

// ProfileInto characterizes one frame's command stream into dst,
// reusing dst's count slices when their lengths match. The frame's
// commands are validated against the streamer's resources first —
// malformed frames (out-of-range mesh/shader/texture references, draws
// with no program bound) return an error and leave dst untouched, so a
// hostile stream can never panic the rasterizer.
func (s *Streamer) ProfileInto(dst *FrameProfile, frame *gltrace.Frame, index int) error {
	if err := s.validateFrame(frame); err != nil {
		return err
	}
	s.profileInto(dst, frame, index)
	return nil
}

// profileInto is ProfileInto after validation: the shared per-frame
// characterization body RunObs and the streaming sampler both execute.
func (s *Streamer) profileInto(dst *FrameProfile, frame *gltrace.Frame, index int) {
	*dst = FrameProfile{Frame: index, VSCount: resizeU64(dst.VSCount, len(s.res.vs)), FSCount: resizeU64(dst.FSCount, len(s.res.fs))}
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
			mesh := &s.res.meshes[cmd.Mesh]
			dst.VSCount[curVS] += uint64(len(mesh.Vertices))

			// Functionally execute the bound programs once per draw
			// with draw-derived inputs; lock-step warps make all
			// invocations of a draw structurally identical, so one
			// execution yields the per-draw functional digest.
			s.res.vs[curVS].ExecInto(&s.vsOut, shader.Regs{
				cmd.MVP[3], cmd.MVP[7], cmd.MVP[11], cmd.DepthBias,
			}, nil)
			s.sampler.tex = curTex
			s.res.fs[curFS].ExecInto(&s.fsOut, shader.Regs{
				cmd.MVP[3], cmd.MVP[7], 0.5, 0.5,
			}, &s.sampler)
			dst.Checksum = mixChecksum(dst.Checksum, s.vsOut.Regs, s.fsOut.Regs)

			tris, gstats := raster.ProcessDrawScratch(mesh, cmd.MVP, s.res.viewport, cmd.DepthBias, s.triBuf[:0], &s.draw)
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

// validateFrame checks one frame's referential integrity against the
// streamer's resources — the per-frame slice of gltrace.Trace.Validate.
func (s *Streamer) validateFrame(frame *gltrace.Frame) error {
	bound := false
	for ci, cmd := range frame.Commands {
		switch cmd.Op {
		case gltrace.CmdBindProgram:
			if cmd.VS < 0 || cmd.VS >= len(s.res.vs) {
				return fmt.Errorf("funcsim: cmd %d binds missing vertex shader %d", ci, cmd.VS)
			}
			if cmd.FS < 0 || cmd.FS >= len(s.res.fs) {
				return fmt.Errorf("funcsim: cmd %d binds missing fragment shader %d", ci, cmd.FS)
			}
			bound = true
		case gltrace.CmdBindTexture:
			if cmd.Texture < 0 || cmd.Texture >= len(s.res.textures) {
				return fmt.Errorf("funcsim: cmd %d binds missing texture %d", ci, cmd.Texture)
			}
			if cmd.Unit < 0 || cmd.Unit >= 8 {
				return fmt.Errorf("funcsim: cmd %d binds sampler unit %d out of range", ci, cmd.Unit)
			}
		case gltrace.CmdDraw:
			if cmd.Mesh < 0 || cmd.Mesh >= len(s.res.meshes) {
				return fmt.Errorf("funcsim: cmd %d draws missing mesh %d", ci, cmd.Mesh)
			}
			if !bound {
				return fmt.Errorf("funcsim: cmd %d draws with no program bound", ci)
			}
		case gltrace.CmdClear:
			// always valid
		default:
			return fmt.Errorf("funcsim: cmd %d has unknown op %d", ci, int(cmd.Op))
		}
	}
	return nil
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
