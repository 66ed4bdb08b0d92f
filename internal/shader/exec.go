package shader

import "math"

// Sampler provides texel values to the executor. The functional simulator
// passes a procedural texture; tests pass simple closures.
type Sampler interface {
	// Sample returns the filtered texel value of texture unit at (u, v).
	Sample(unit int, u, v float64, filter FilterMode) float64
}

// SamplerFunc adapts a function to the Sampler interface.
type SamplerFunc func(unit int, u, v float64, filter FilterMode) float64

// Sample calls f.
func (f SamplerFunc) Sample(unit int, u, v float64, filter FilterMode) float64 {
	return f(unit, u, v, filter)
}

// ConstSampler returns v for every sample.
func ConstSampler(v float64) Sampler {
	return SamplerFunc(func(int, float64, float64, FilterMode) float64 { return v })
}

// Regs is a shader register file.
type Regs [NumRegs]float64

// TraceEvent records one texture access performed during execution; the
// functional simulator forwards these to the cache models.
type TraceEvent struct {
	Sampler int
	U, V    float64
	Filter  FilterMode
}

// ExecResult is the outcome of one functional shader invocation.
type ExecResult struct {
	Regs Regs // final register file
	Cost Cost // instructions actually executed (taken path only)
	Tex  []TraceEvent
}

// Exec functionally executes the program over the given initial register
// file. Unlike DynamicCost, Exec follows the *taken* side of branches —
// it computes real values. The timing model uses DynamicCost (lock-step
// warps execute both paths); the functional simulator uses Exec to
// produce deterministic output values and texture access streams.
//
// A nil sampler behaves as ConstSampler(0).
func (p *Program) Exec(in Regs, sampler Sampler) ExecResult {
	var res ExecResult
	p.ExecInto(&res, in, sampler)
	return res
}

// zeroSampler is ConstSampler(0), built once so a nil sampler costs no
// allocation per execution.
var zeroSampler = ConstSampler(0)

// ExecInto is Exec writing into dst, reusing dst.Tex's backing array,
// so a caller executing many programs performs no per-execution
// allocation.
func (p *Program) ExecInto(dst *ExecResult, in Regs, sampler Sampler) {
	if sampler == nil {
		sampler = zeroSampler
	}
	*dst = ExecResult{Regs: in, Tex: dst.Tex[:0]}
	execBlock(p.Code, dst, sampler, 0)
}

// maxExecInstrs bounds runaway programs (defence in depth; Validate
// already bounds nesting and loop counts are static).
const maxExecInstrs = 1 << 20

func execBlock(code []Instr, res *ExecResult, sampler Sampler, depth int) {
	for i := range code {
		if res.Cost.Instructions >= maxExecInstrs {
			return
		}
		in := &code[i]
		res.Cost.Instructions++
		switch in.Op {
		case OpMov:
			if in.SrcA < 0 {
				res.Regs[in.Dst] = in.Imm
			} else {
				res.Regs[in.Dst] = res.Regs[in.SrcA]
			}
			res.Cost.ALUOps++
		case OpAdd:
			res.Regs[in.Dst] = res.Regs[in.SrcA] + res.Regs[in.SrcB]
			res.Cost.ALUOps++
		case OpMul:
			res.Regs[in.Dst] = res.Regs[in.SrcA] * res.Regs[in.SrcB]
			res.Cost.ALUOps++
		case OpMad:
			res.Regs[in.Dst] = res.Regs[in.SrcA]*res.Regs[in.SrcB] + res.Regs[in.Dst]
			res.Cost.ALUOps++
		case OpMin:
			res.Regs[in.Dst] = math.Min(res.Regs[in.SrcA], res.Regs[in.SrcB])
			res.Cost.ALUOps++
		case OpMax:
			res.Regs[in.Dst] = math.Max(res.Regs[in.SrcA], res.Regs[in.SrcB])
			res.Cost.ALUOps++
		case OpRsq:
			v := math.Abs(res.Regs[in.SrcA])
			if v == 0 {
				res.Regs[in.Dst] = 0
			} else {
				res.Regs[in.Dst] = 1 / math.Sqrt(v)
			}
			res.Cost.ALUOps++
		case OpFrc:
			v := res.Regs[in.SrcA]
			res.Regs[in.Dst] = v - math.Floor(v)
			res.Cost.ALUOps++
		case OpSin:
			res.Regs[in.Dst] = math.Sin(res.Regs[in.SrcA])
			res.Cost.ALUOps++
		case OpTex:
			u, v := res.Regs[in.SrcA], res.Regs[in.SrcB]
			res.Regs[in.Dst] = sampler.Sample(in.Sampler, u, v, in.Filter)
			res.Cost.TexSamples++
			res.Cost.TexMemAccesses += in.Filter.MemAccesses()
			res.Tex = append(res.Tex, TraceEvent{Sampler: in.Sampler, U: u, V: v, Filter: in.Filter})
		case OpIf:
			if res.Regs[in.SrcA] > 0 {
				execBlock(in.Body, res, sampler, depth+1)
			} else {
				execBlock(in.Else, res, sampler, depth+1)
			}
		case OpLoop:
			for n := 0; n < in.Count; n++ {
				execBlock(in.Body, res, sampler, depth+1)
				if res.Cost.Instructions >= maxExecInstrs {
					return
				}
			}
		}
	}
}
