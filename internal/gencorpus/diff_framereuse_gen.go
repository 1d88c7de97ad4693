// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 425aac21d36635b89f99b5d53ca390c286168f069905dbed56e6b304330f500f.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var diff_framereuse_pos = []token.Pos{
	{File: "t.c", Line: 7, Col: 12},
	{File: "t.c", Line: 7, Col: 2},
	{File: "t.c", Line: 13, Col: 12},
	{File: "t.c", Line: 13, Col: 2},
	{File: "t.c", Line: 14, Col: 11},
	{File: "t.c", Line: 20, Col: 12},
	{File: "t.c", Line: 20, Col: 2},
	{File: "t.c", Line: 21, Col: 10},
	{File: "t.c", Line: 21, Col: 4},
	{File: "t.c", Line: 22, Col: 15},
	{File: "t.c", Line: 22, Col: 12},
	{File: "t.c", Line: 22, Col: 8},
	{File: "t.c", Line: 22, Col: 4},
	{File: "t.c", Line: 23, Col: 9},
	{File: "t.c", Line: 23, Col: 12},
	{File: "t.c", Line: 28, Col: 9},
	{File: "t.c", Line: 32, Col: 9},
	{File: "t.c", Line: 40, Col: 12},
	{File: "t.c", Line: 40, Col: 2},
	{File: "t.c", Line: 41, Col: 15},
	{File: "t.c", Line: 41, Col: 2},
	{File: "t.c", Line: 42, Col: 12},
	{File: "t.c", Line: 43, Col: 15},
	{File: "t.c", Line: 43, Col: 11},
	{File: "t.c", Line: 44, Col: 19},
	{File: "t.c", Line: 44, Col: 12},
	{File: "t.c", Line: 47, Col: 13},
	{File: "t.c", Line: 47, Col: 11},
	{File: "t.c", Line: 53, Col: 16},
	{File: "t.c", Line: 53, Col: 2},
	{File: "t.c", Line: 54, Col: 19},
	{File: "t.c", Line: 54, Col: 16},
	{File: "t.c", Line: 54, Col: 8},
	{File: "t.c", Line: 54, Col: 4},
	{File: "t.c", Line: 55, Col: 13},
	{File: "t.c", Line: 55, Col: 11},
	{File: "t.c", Line: 61, Col: 16},
	{File: "t.c", Line: 61, Col: 2},
	{File: "t.c", Line: 62, Col: 11},
	{File: "t.c", Line: 62, Col: 4},
	{File: "t.c", Line: 63, Col: 12},
	{File: "t.c", Line: 63, Col: 8},
	{File: "t.c", Line: 63, Col: 4},
	{File: "t.c", Line: 64, Col: 13},
	{File: "t.c", Line: 64, Col: 11},
	{File: "t.c", Line: 71, Col: 12},
	{File: "t.c", Line: 71, Col: 2},
	{File: "t.c", Line: 72, Col: 8},
	{File: "t.c", Line: 74, Col: 8},
	{File: "t.c", Line: 75, Col: 15},
	{File: "t.c", Line: 75, Col: 24},
	{File: "t.c", Line: 75, Col: 12},
	{File: "t.c", Line: 76, Col: 14},
	{File: "t.c", Line: 76, Col: 27},
	{File: "t.c", Line: 76, Col: 23},
	{File: "t.c", Line: 76, Col: 11},
	{File: "t.c", Line: 82, Col: 9},
	{File: "t.c", Line: 83, Col: 15},
	{File: "t.c", Line: 83, Col: 9},
	{File: "t.c", Line: 84, Col: 13},
	{File: "t.c", Line: 84, Col: 9},
	{File: "t.c", Line: 85, Col: 28},
	{File: "t.c", Line: 85, Col: 25},
	{File: "t.c", Line: 85, Col: 20},
	{File: "t.c", Line: 85, Col: 34},
	{File: "t.c", Line: 85, Col: 11},
	{File: "t.c", Line: 89, Col: 11},
	{File: "t.c", Line: 89, Col: 22},
	{File: "t.c", Line: 89, Col: 18},
}

var diff_framereuse_t0 *types.Type

var diff_framereuse_spec_leak = &mem.FrameSpec{Canary: "canary:leak", Size: 8, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "v (leak)", Off: 0, Size: 4},
	{Name: "x (leak)", Off: 4, Size: 4},
}}
var diff_framereuse_spec_sq = &mem.FrameSpec{Canary: "canary:sq", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (sq)", Off: 0, Size: 4},
	{Name: "t (sq)", Off: 4, Size: 4},
}}
var diff_framereuse_spec_dangle = &mem.FrameSpec{Canary: "canary:dangle", Size: 20, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "v (dangle)", Off: 0, Size: 4},
	{Name: "p (dangle)", Off: 8, Size: 8},
	{Name: "r (dangle)", Off: 16, Size: 4},
}}
var diff_framereuse_spec_here = &mem.FrameSpec{Canary: "canary:here", Size: 4, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "z (here)", Off: 0, Size: 4},
}}
var diff_framereuse_spec_forge = &mem.FrameSpec{Canary: "canary:forge", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "addr (forge)", Off: 0, Size: 8},
}}
var diff_framereuse_spec_victim = &mem.FrameSpec{Canary: "canary:victim", Size: 32, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (victim)", Off: 0, Size: 4},
	{Name: "delta (victim)", Off: 8, Size: 8},
	{Name: "t (victim)", Off: 16, Size: 4},
	{Name: "z (victim)", Off: 24, Size: 8},
}}
var diff_framereuse_spec_forged = &mem.FrameSpec{Canary: "canary:forged", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (forged)", Off: 0, Size: 4},
	{Name: "r (forged)", Off: 4, Size: 4},
}}
var diff_framereuse_spec_popped = &mem.FrameSpec{Canary: "canary:popped", Size: 20, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (popped)", Off: 0, Size: 4},
	{Name: "q (popped)", Off: 8, Size: 8},
	{Name: "r (popped)", Off: 16, Size: 4},
}}
var diff_framereuse_spec_rq = &mem.FrameSpec{Canary: "canary:rq", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (rq)", Off: 0, Size: 4},
	{Name: "acc (rq)", Off: 4, Size: 4},
	{Name: "k (rq)", Off: 8, Size: 4},
}}
var diff_framereuse_spec_nq = &mem.FrameSpec{Canary: "canary:nq", Size: 20, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "n (nq)", Off: 0, Size: 4},
	{Name: "acc (nq)", Off: 4, Size: 4},
	{Name: "buf (nq)", Off: 8, Size: 12},
}}
var diff_framereuse_spec_deep = &mem.FrameSpec{Canary: "canary:deep", Size: 4, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (deep)", Off: 0, Size: 4},
}}

var diff_framereuse_prog *interp.GenProgram

func init() {
	diff_framereuse_t0 = types.PointerTo(types.IntType)
	diff_framereuse_prog = &interp.GenProgram{
		Hash:     "425aac21d36635b89f99b5d53ca390c286168f069905dbed56e6b304330f500f",
		NumSites: 4,
		Funcs: map[string]interp.GenFn{
			"leak":   diff_framereuse_f_leak,
			"sq":     diff_framereuse_f_sq,
			"dangle": diff_framereuse_f_dangle,
			"here":   diff_framereuse_f_here,
			"forge":  diff_framereuse_f_forge,
			"victim": diff_framereuse_f_victim,
			"forged": diff_framereuse_f_forged,
			"popped": diff_framereuse_f_popped,
			"rq":     diff_framereuse_f_rq,
			"nq":     diff_framereuse_f_nq,
			"deep":   diff_framereuse_f_deep,
		},
	}
	interp.RegisterGenerated(diff_framereuse_prog)
}

func diff_framereuse_f_leak(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "leak", len(args), 1)
	}
	f := m.GenPushFrame(diff_framereuse_spec_leak)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_framereuse_b_leak)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: diff_framereuse_t0}
	}
	var r interp.Value
	if ret.T == diff_framereuse_t0 {
		r = ret
	} else if ret.T != nil && ret.T.IsPointer() {
		r = interp.Value{T: diff_framereuse_t0, Ptr: ret.Ptr}
	} else {
		r = m.GenConvert(ret, diff_framereuse_t0, pos)
	}
	return r
}

func diff_framereuse_b_leak(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		v2 := f.LocalAt(0)
		m.GenChargeAccess()
		v3 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v2.Data[0:])))}
		var v4 interp.Value
		if v3.T == types.IntType {
			v4 = interp.Value{T: types.IntType, I: int64(int32(v3.I * 3))}
		} else {
			v4 = m.GenBinaryOp(token.Star, v3, (interp.Value{T: types.IntType, I: 3}), types.IntType, diff_framereuse_pos[0])
		}
		var v5 interp.Value
		if v4.T == types.IntType {
			v5 = v4
		} else if v4.T != nil && v4.T.IsInteger() {
			v5 = interp.Value{T: types.IntType, I: int64(int32(v4.I))}
		} else {
			v5 = m.GenConvert(v4, types.IntType, diff_framereuse_pos[1])
		}
		m.GenStoreRaw(v1, 0, types.IntType, v5)
	}
	{
		m.GenStep()
		v6 := f.LocalAt(1)
		v7 := interp.Value{T: diff_framereuse_t0, Ptr: core.Pointer{Addr: v6.Base, Prov: v6}}
		ret = v7
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_framereuse_f_sq(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "sq", len(args), 1)
	}
	f := m.GenPushFrame(diff_framereuse_spec_sq)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_framereuse_b_sq)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	var r interp.Value
	if ret.T == types.IntType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.IntType, I: int64(int32(ret.I))}
	} else {
		r = m.GenConvert(ret, types.IntType, pos)
	}
	return r
}

func diff_framereuse_b_sq(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		v2 := f.LocalAt(0)
		m.GenChargeAccess()
		v3 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v2.Data[0:])))}
		v4 := f.LocalAt(0)
		m.GenChargeAccess()
		v5 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v4.Data[0:])))}
		var v6 interp.Value
		if v3.T == types.IntType && v5.T == types.IntType {
			v6 = interp.Value{T: types.IntType, I: int64(int32(v3.I * v5.I))}
		} else {
			v6 = m.GenBinaryOp(token.Star, v3, v5, types.IntType, diff_framereuse_pos[2])
		}
		var v7 interp.Value
		if v6.T == types.IntType {
			v7 = v6
		} else if v6.T != nil && v6.T.IsInteger() {
			v7 = interp.Value{T: types.IntType, I: int64(int32(v6.I))}
		} else {
			v7 = m.GenConvert(v6, types.IntType, diff_framereuse_pos[3])
		}
		m.GenStoreRaw(v1, 0, types.IntType, v7)
	}
	{
		m.GenStep()
		v8 := f.LocalAt(1)
		m.GenChargeAccess()
		v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
		var v10 interp.Value
		if v9.T == types.IntType {
			v10 = interp.Value{T: types.IntType, I: int64(int32(v9.I + 1))}
		} else {
			v10 = m.GenBinaryOp(token.Plus, v9, (interp.Value{T: types.IntType, I: 1}), types.IntType, diff_framereuse_pos[4])
		}
		ret = v10
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_framereuse_f_dangle(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "dangle", len(args), 1)
	}
	f := m.GenPushFrame(diff_framereuse_spec_dangle)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_framereuse_b_dangle)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	var r interp.Value
	if ret.T == types.IntType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.IntType, I: int64(int32(ret.I))}
	} else {
		r = m.GenConvert(ret, types.IntType, pos)
	}
	return r
}

func diff_framereuse_b_dangle(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
	}
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		m.GenStep()
		v3 := m.GenArgs(1)
		v4 := f.LocalAt(0)
		m.GenChargeAccess()
		v5 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v4.Data[0:])))}
		v3[0] = v5
		v6 := diff_framereuse_f_sq(m, v3, diff_framereuse_pos[5])
		m.GenPutArgs(v3)
		var v7 interp.Value
		if v6.T == types.IntType {
			v7 = v6
		} else if v6.T != nil && v6.T.IsInteger() {
			v7 = interp.Value{T: types.IntType, I: int64(int32(v6.I))}
		} else {
			v7 = m.GenConvert(v6, types.IntType, diff_framereuse_pos[6])
		}
		m.GenStoreRaw(v2, 0, types.IntType, v7)
	}
	{
		m.GenStep()
		m.GenStep()
		v8 := m.GenArgs(1)
		v9 := f.LocalAt(0)
		m.GenChargeAccess()
		v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
		v8[0] = v10
		v11 := diff_framereuse_f_leak(m, v8, diff_framereuse_pos[7])
		m.GenPutArgs(v8)
		v12 := f.LocalAt(1)
		var v13 interp.Value
		if v11.T == diff_framereuse_t0 {
			v13 = v11
		} else if v11.T != nil && v11.T.IsPointer() {
			v13 = interp.Value{T: diff_framereuse_t0, Ptr: v11.Ptr}
		} else {
			v13 = m.GenConvert(v11, diff_framereuse_t0, diff_framereuse_pos[8])
		}
		m.GenStoreRaw(v12, 0, diff_framereuse_t0, v13)
		_ = v13
	}
	{
		m.GenStep()
		v14 := f.LocalAt(2)
		m.GenChargeAccess()
		v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
		m.GenStep()
		v16 := m.GenArgs(1)
		v17 := f.LocalAt(0)
		m.GenChargeAccess()
		v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
		var v19 interp.Value
		if v18.T == types.IntType {
			v19 = interp.Value{T: types.IntType, I: int64(int32(v18.I + 1))}
		} else {
			v19 = m.GenBinaryOp(token.Plus, v18, (interp.Value{T: types.IntType, I: 1}), types.IntType, diff_framereuse_pos[9])
		}
		v16[0] = v19
		v20 := diff_framereuse_f_sq(m, v16, diff_framereuse_pos[10])
		m.GenPutArgs(v16)
		var v21 interp.Value
		if v15.T == types.IntType && v20.T == types.IntType {
			v21 = interp.Value{T: types.IntType, I: int64(int32(v15.I + v20.I))}
		} else {
			v21 = m.GenBinaryOp(token.Plus, v15, v20, types.IntType, diff_framereuse_pos[11])
		}
		v22 := f.LocalAt(2)
		var v23 interp.Value
		if v21.T == types.IntType {
			v23 = v21
		} else if v21.T != nil && v21.T.IsInteger() {
			v23 = interp.Value{T: types.IntType, I: int64(int32(v21.I))}
		} else {
			v23 = m.GenConvert(v21, types.IntType, diff_framereuse_pos[12])
		}
		m.GenStoreRaw(v22, 0, types.IntType, v23)
		_ = v23
	}
	{
		m.GenStep()
		v24 := f.LocalAt(1)
		v25 := m.GenLoadRaw(v24, 0, diff_framereuse_t0, 0)
		v26 := m.GenLoadValue(v25.Ptr, types.IntType, diff_framereuse_pos[13], -1, 0)
		v27 := f.LocalAt(2)
		m.GenChargeAccess()
		v28 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v27.Data[0:])))}
		var v29 interp.Value
		if v26.T == types.IntType && v28.T == types.IntType {
			v29 = interp.Value{T: types.IntType, I: int64(int32(v26.I + v28.I))}
		} else {
			v29 = m.GenBinaryOp(token.Plus, v26, v28, types.IntType, diff_framereuse_pos[14])
		}
		ret = v29
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_framereuse_f_here(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "here", len(args), 0)
	}
	f := m.GenPushFrame(diff_framereuse_spec_here)
	ret := m.GenExec(f, diff_framereuse_b_here)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.LongType}
	}
	var r interp.Value
	if ret.T == types.LongType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.LongType, I: ret.I}
	} else {
		r = m.GenConvert(ret, types.LongType, pos)
	}
	return r
}

func diff_framereuse_b_here(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		_ = v0
	}
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		v2 := interp.Value{T: diff_framereuse_t0, Ptr: core.Pointer{Addr: v1.Base, Prov: v1}}
		var v3 interp.Value
		if v2.T == types.LongType {
			v3 = v2
		} else if v2.T != nil && v2.T.IsInteger() {
			v3 = interp.Value{T: types.LongType, I: v2.I}
		} else {
			v3 = m.GenConvert(v2, types.LongType, diff_framereuse_pos[15])
		}
		ret = v3
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_framereuse_f_forge(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "forge", len(args), 1)
	}
	f := m.GenPushFrame(diff_framereuse_spec_forge)
	var v0 interp.Value
	if args[0].T == types.LongType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.LongType, I: args[0].I}
	} else {
		v0 = m.GenConvert(args[0], types.LongType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.LongType, v0)
	ret := m.GenExec(f, diff_framereuse_b_forge)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: diff_framereuse_t0}
	}
	var r interp.Value
	if ret.T == diff_framereuse_t0 {
		r = ret
	} else if ret.T != nil && ret.T.IsPointer() {
		r = interp.Value{T: diff_framereuse_t0, Ptr: ret.Ptr}
	} else {
		r = m.GenConvert(ret, diff_framereuse_t0, pos)
	}
	return r
}

func diff_framereuse_b_forge(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		m.GenChargeAccess()
		v2 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v1.Data[0:]))}
		var v3 interp.Value
		if v2.T == diff_framereuse_t0 {
			v3 = v2
		} else if v2.T != nil && v2.T.IsPointer() {
			v3 = interp.Value{T: diff_framereuse_t0, Ptr: v2.Ptr}
		} else {
			v3 = m.GenConvert(v2, diff_framereuse_t0, diff_framereuse_pos[16])
		}
		ret = v3
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_framereuse_f_victim(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 2 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "victim", len(args), 2)
	}
	f := m.GenPushFrame(diff_framereuse_spec_victim)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	var v1 interp.Value
	if args[1].T == types.LongType {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsInteger() {
		v1 = interp.Value{T: types.LongType, I: args[1].I}
	} else {
		v1 = m.GenConvert(args[1], types.LongType, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, types.LongType, v1)
	ret := m.GenExec(f, diff_framereuse_b_victim)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	var r interp.Value
	if ret.T == types.IntType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.IntType, I: int64(int32(ret.I))}
	} else {
		r = m.GenConvert(ret, types.IntType, pos)
	}
	return r
}

func diff_framereuse_b_victim(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		v3 := f.LocalAt(0)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		var v5 interp.Value
		if v4.T == types.IntType {
			v5 = interp.Value{T: types.IntType, I: int64(int32(v4.I + 100))}
		} else {
			v5 = m.GenBinaryOp(token.Plus, v4, (interp.Value{T: types.IntType, I: 100}), types.IntType, diff_framereuse_pos[17])
		}
		var v6 interp.Value
		if v5.T == types.IntType {
			v6 = v5
		} else if v5.T != nil && v5.T.IsInteger() {
			v6 = interp.Value{T: types.IntType, I: int64(int32(v5.I))}
		} else {
			v6 = m.GenConvert(v5, types.IntType, diff_framereuse_pos[18])
		}
		m.GenStoreRaw(v2, 0, types.IntType, v6)
	}
	{
		m.GenStep()
		v7 := f.LocalAt(3)
		m.GenStep()
		v8 := m.GenArgs(0)
		v9 := diff_framereuse_f_here(m, v8, diff_framereuse_pos[19])
		m.GenPutArgs(v8)
		var v10 interp.Value
		if v9.T == types.LongType {
			v10 = v9
		} else if v9.T != nil && v9.T.IsInteger() {
			v10 = interp.Value{T: types.LongType, I: v9.I}
		} else {
			v10 = m.GenConvert(v9, types.LongType, diff_framereuse_pos[20])
		}
		m.GenStoreRaw(v7, 0, types.LongType, v10)
	}
	{
		m.GenStep()
		v11 := f.LocalAt(1)
		m.GenChargeAccess()
		v12 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v11.Data[0:]))}
		var v13 interp.Value
		if v12.T == types.LongType {
			if v12.I != 0 {
				v13 = interp.Value{T: types.IntType, I: 1}
			} else {
				v13 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v13 = m.GenBinaryOp(token.NotEq, v12, (interp.Value{T: types.IntType, I: 0}), types.IntType, diff_framereuse_pos[21])
		}
		if v13.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					v14 := f.LocalAt(3)
					m.GenChargeAccess()
					v15 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v14.Data[0:]))}
					v16 := f.LocalAt(1)
					m.GenChargeAccess()
					v17 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v16.Data[0:]))}
					var v18 interp.Value
					if v15.T == types.LongType && v17.T == types.LongType {
						v18 = interp.Value{T: types.LongType, I: v15.I + v17.I}
					} else {
						v18 = m.GenBinaryOp(token.Plus, v15, v17, types.LongType, diff_framereuse_pos[22])
					}
					v19 := m.GenGlobal(1)
					var v20 interp.Value
					if v18.T == types.LongType {
						v20 = v18
					} else if v18.T != nil && v18.T.IsInteger() {
						v20 = interp.Value{T: types.LongType, I: v18.I}
					} else {
						v20 = m.GenConvert(v18, types.LongType, diff_framereuse_pos[23])
					}
					m.GenStoreRaw(v19, 0, types.LongType, v20)
					_ = v20
				}
				{
					m.GenStep()
					m.GenStep()
					v21 := m.GenArgs(1)
					v22 := m.GenGlobal(1)
					m.GenChargeAccess()
					v23 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v22.Data[0:]))}
					v21[0] = v23
					v24 := diff_framereuse_f_forge(m, v21, diff_framereuse_pos[24])
					m.GenPutArgs(v21)
					v25 := m.GenGlobal(0)
					var v26 interp.Value
					if v24.T == diff_framereuse_t0 {
						v26 = v24
					} else if v24.T != nil && v24.T.IsPointer() {
						v26 = interp.Value{T: diff_framereuse_t0, Ptr: v24.Ptr}
					} else {
						v26 = m.GenConvert(v24, diff_framereuse_t0, diff_framereuse_pos[25])
					}
					m.GenStoreRaw(v25, 0, diff_framereuse_t0, v26)
					_ = v26
				}
				{
					m.GenStep()
					v27 := f.LocalAt(2)
					m.GenChargeAccess()
					v28 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v27.Data[0:])))}
					ret = v28
					if interp.GenLive {
						return
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v29 := f.LocalAt(2)
		m.GenChargeAccess()
		v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
		v31 := m.GenGlobal(0)
		v32 := m.GenLoadRaw(v31, 0, diff_framereuse_t0, 1)
		v33 := m.GenLoadValue(v32.Ptr, types.IntType, diff_framereuse_pos[26], -1, 1)
		var v34 interp.Value
		if v30.T == types.IntType && v33.T == types.IntType {
			v34 = interp.Value{T: types.IntType, I: int64(int32(v30.I + v33.I))}
		} else {
			v34 = m.GenBinaryOp(token.Plus, v30, v33, types.IntType, diff_framereuse_pos[27])
		}
		ret = v34
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_framereuse_f_forged(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "forged", len(args), 1)
	}
	f := m.GenPushFrame(diff_framereuse_spec_forged)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_framereuse_b_forged)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	var r interp.Value
	if ret.T == types.IntType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.IntType, I: int64(int32(ret.I))}
	} else {
		r = m.GenConvert(ret, types.IntType, pos)
	}
	return r
}

func diff_framereuse_b_forged(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStep()
		v2 := m.GenArgs(2)
		v3 := f.LocalAt(0)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		v2[0] = v4
		v2[1] = (interp.Value{T: types.IntType, I: 32})
		v5 := diff_framereuse_f_victim(m, v2, diff_framereuse_pos[28])
		m.GenPutArgs(v2)
		var v6 interp.Value
		if v5.T == types.IntType {
			v6 = v5
		} else if v5.T != nil && v5.T.IsInteger() {
			v6 = interp.Value{T: types.IntType, I: int64(int32(v5.I))}
		} else {
			v6 = m.GenConvert(v5, types.IntType, diff_framereuse_pos[29])
		}
		m.GenStoreRaw(v1, 0, types.IntType, v6)
	}
	{
		m.GenStep()
		v7 := f.LocalAt(1)
		m.GenChargeAccess()
		v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
		m.GenStep()
		v9 := m.GenArgs(2)
		v10 := f.LocalAt(0)
		m.GenChargeAccess()
		v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
		var v12 interp.Value
		if v11.T == types.IntType {
			v12 = interp.Value{T: types.IntType, I: int64(int32(v11.I + 1))}
		} else {
			v12 = m.GenBinaryOp(token.Plus, v11, (interp.Value{T: types.IntType, I: 1}), types.IntType, diff_framereuse_pos[30])
		}
		v9[0] = v12
		v9[1] = (interp.Value{T: types.IntType, I: 0})
		v13 := diff_framereuse_f_victim(m, v9, diff_framereuse_pos[31])
		m.GenPutArgs(v9)
		var v14 interp.Value
		if v8.T == types.IntType && v13.T == types.IntType {
			v14 = interp.Value{T: types.IntType, I: int64(int32(v8.I + v13.I))}
		} else {
			v14 = m.GenBinaryOp(token.Plus, v8, v13, types.IntType, diff_framereuse_pos[32])
		}
		v15 := f.LocalAt(1)
		var v16 interp.Value
		if v14.T == types.IntType {
			v16 = v14
		} else if v14.T != nil && v14.T.IsInteger() {
			v16 = interp.Value{T: types.IntType, I: int64(int32(v14.I))}
		} else {
			v16 = m.GenConvert(v14, types.IntType, diff_framereuse_pos[33])
		}
		m.GenStoreRaw(v15, 0, types.IntType, v16)
		_ = v16
	}
	{
		m.GenStep()
		v17 := f.LocalAt(1)
		m.GenChargeAccess()
		v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
		v19 := m.GenGlobal(0)
		v20 := m.GenLoadRaw(v19, 0, diff_framereuse_t0, 2)
		v21 := m.GenLoadValue(v20.Ptr, types.IntType, diff_framereuse_pos[34], -1, 2)
		var v22 interp.Value
		if v18.T == types.IntType && v21.T == types.IntType {
			v22 = interp.Value{T: types.IntType, I: int64(int32(v18.I + v21.I))}
		} else {
			v22 = m.GenBinaryOp(token.Plus, v18, v21, types.IntType, diff_framereuse_pos[35])
		}
		ret = v22
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_framereuse_f_popped(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "popped", len(args), 1)
	}
	f := m.GenPushFrame(diff_framereuse_spec_popped)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_framereuse_b_popped)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	var r interp.Value
	if ret.T == types.IntType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.IntType, I: int64(int32(ret.I))}
	} else {
		r = m.GenConvert(ret, types.IntType, pos)
	}
	return r
}

func diff_framereuse_b_popped(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
	}
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		m.GenStep()
		v3 := m.GenArgs(2)
		v4 := f.LocalAt(0)
		m.GenChargeAccess()
		v5 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v4.Data[0:])))}
		v3[0] = v5
		v3[1] = (interp.Value{T: types.IntType, I: 32})
		v6 := diff_framereuse_f_victim(m, v3, diff_framereuse_pos[36])
		m.GenPutArgs(v3)
		var v7 interp.Value
		if v6.T == types.IntType {
			v7 = v6
		} else if v6.T != nil && v6.T.IsInteger() {
			v7 = interp.Value{T: types.IntType, I: int64(int32(v6.I))}
		} else {
			v7 = m.GenConvert(v6, types.IntType, diff_framereuse_pos[37])
		}
		m.GenStoreRaw(v2, 0, types.IntType, v7)
	}
	{
		m.GenStep()
		m.GenStep()
		v8 := m.GenArgs(1)
		v9 := m.GenGlobal(1)
		m.GenChargeAccess()
		v10 := interp.Value{T: types.LongType, I: int64(binary.LittleEndian.Uint64(v9.Data[0:]))}
		v8[0] = v10
		v11 := diff_framereuse_f_forge(m, v8, diff_framereuse_pos[38])
		m.GenPutArgs(v8)
		v12 := f.LocalAt(1)
		var v13 interp.Value
		if v11.T == diff_framereuse_t0 {
			v13 = v11
		} else if v11.T != nil && v11.T.IsPointer() {
			v13 = interp.Value{T: diff_framereuse_t0, Ptr: v11.Ptr}
		} else {
			v13 = m.GenConvert(v11, diff_framereuse_t0, diff_framereuse_pos[39])
		}
		m.GenStoreRaw(v12, 0, diff_framereuse_t0, v13)
		_ = v13
	}
	{
		m.GenStep()
		v14 := f.LocalAt(2)
		m.GenChargeAccess()
		v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
		m.GenStep()
		v16 := m.GenArgs(1)
		v17 := f.LocalAt(0)
		m.GenChargeAccess()
		v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
		v16[0] = v18
		v19 := diff_framereuse_f_sq(m, v16, diff_framereuse_pos[40])
		m.GenPutArgs(v16)
		var v20 interp.Value
		if v15.T == types.IntType && v19.T == types.IntType {
			v20 = interp.Value{T: types.IntType, I: int64(int32(v15.I + v19.I))}
		} else {
			v20 = m.GenBinaryOp(token.Plus, v15, v19, types.IntType, diff_framereuse_pos[41])
		}
		v21 := f.LocalAt(2)
		var v22 interp.Value
		if v20.T == types.IntType {
			v22 = v20
		} else if v20.T != nil && v20.T.IsInteger() {
			v22 = interp.Value{T: types.IntType, I: int64(int32(v20.I))}
		} else {
			v22 = m.GenConvert(v20, types.IntType, diff_framereuse_pos[42])
		}
		m.GenStoreRaw(v21, 0, types.IntType, v22)
		_ = v22
	}
	{
		m.GenStep()
		v23 := f.LocalAt(2)
		m.GenChargeAccess()
		v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
		v25 := f.LocalAt(1)
		v26 := m.GenLoadRaw(v25, 0, diff_framereuse_t0, 3)
		v27 := m.GenLoadValue(v26.Ptr, types.IntType, diff_framereuse_pos[43], -1, 3)
		var v28 interp.Value
		if v24.T == types.IntType && v27.T == types.IntType {
			v28 = interp.Value{T: types.IntType, I: int64(int32(v24.I + v27.I))}
		} else {
			v28 = m.GenBinaryOp(token.Plus, v24, v27, types.IntType, diff_framereuse_pos[44])
		}
		ret = v28
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_framereuse_f_rq(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 2 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "rq", len(args), 2)
	}
	f := m.GenPushFrame(diff_framereuse_spec_rq)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	var v1 interp.Value
	if args[1].T == types.IntType {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsInteger() {
		v1 = interp.Value{T: types.IntType, I: int64(int32(args[1].I))}
	} else {
		v1 = m.GenConvert(args[1], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, types.IntType, v1)
	ret := m.GenExec(f, diff_framereuse_b_rq)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	var r interp.Value
	if ret.T == types.IntType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.IntType, I: int64(int32(ret.I))}
	} else {
		r = m.GenConvert(ret, types.IntType, pos)
	}
	return r
}

func diff_framereuse_b_rq(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		v3 := f.LocalAt(0)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		var v5 interp.Value
		v5 = m.GenBinaryOp(token.Percent, v4, (interp.Value{T: types.IntType, I: 5}), types.IntType, diff_framereuse_pos[45])
		var v6 interp.Value
		if v5.T == types.IntType {
			v6 = v5
		} else if v5.T != nil && v5.T.IsInteger() {
			v6 = interp.Value{T: types.IntType, I: int64(int32(v5.I))}
		} else {
			v6 = m.GenConvert(v5, types.IntType, diff_framereuse_pos[46])
		}
		m.GenStoreRaw(v2, 0, types.IntType, v6)
	}
	{
		m.GenStep()
		v7 := f.LocalAt(0)
		m.GenChargeAccess()
		v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
		var v9 interp.Value
		if v8.T == types.IntType {
			if v8.I <= 0 {
				v9 = interp.Value{T: types.IntType, I: 1}
			} else {
				v9 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v9 = m.GenBinaryOp(token.Le, v8, (interp.Value{T: types.IntType, I: 0}), types.IntType, diff_framereuse_pos[47])
		}
		if v9.Truthy() {
			{
				m.GenStep()
				v10 := f.LocalAt(1)
				m.GenChargeAccess()
				v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
				ret = v11
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		v12 := f.LocalAt(2)
		m.GenChargeAccess()
		v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
		var v14 interp.Value
		if v13.T == types.IntType {
			if v13.I == 0 {
				v14 = interp.Value{T: types.IntType, I: 1}
			} else {
				v14 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v14 = m.GenBinaryOp(token.EqEq, v13, (interp.Value{T: types.IntType, I: 0}), types.IntType, diff_framereuse_pos[48])
		}
		if v14.Truthy() {
			{
				m.GenStep()
				m.GenStep()
				v15 := m.GenArgs(2)
				v16 := f.LocalAt(0)
				m.GenChargeAccess()
				v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
				var v18 interp.Value
				if v17.T == types.IntType {
					v18 = interp.Value{T: types.IntType, I: int64(int32(v17.I - 1))}
				} else {
					v18 = m.GenBinaryOp(token.Minus, v17, (interp.Value{T: types.IntType, I: 1}), types.IntType, diff_framereuse_pos[49])
				}
				v15[0] = v18
				v19 := f.LocalAt(1)
				m.GenChargeAccess()
				v20 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v19.Data[0:])))}
				var v21 interp.Value
				if v20.T == types.IntType {
					v21 = interp.Value{T: types.IntType, I: int64(int32(v20.I + 1))}
				} else {
					v21 = m.GenBinaryOp(token.Plus, v20, (interp.Value{T: types.IntType, I: 1}), types.IntType, diff_framereuse_pos[50])
				}
				v15[1] = v21
				v22 := diff_framereuse_f_nq(m, v15, diff_framereuse_pos[51])
				m.GenPutArgs(v15)
				ret = v22
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v23 := m.GenArgs(2)
		v24 := f.LocalAt(0)
		m.GenChargeAccess()
		v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
		var v26 interp.Value
		if v25.T == types.IntType {
			v26 = interp.Value{T: types.IntType, I: int64(int32(v25.I - 1))}
		} else {
			v26 = m.GenBinaryOp(token.Minus, v25, (interp.Value{T: types.IntType, I: 1}), types.IntType, diff_framereuse_pos[52])
		}
		v23[0] = v26
		v27 := f.LocalAt(1)
		m.GenChargeAccess()
		v28 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v27.Data[0:])))}
		v29 := f.LocalAt(2)
		m.GenChargeAccess()
		v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
		v31 := f.LocalAt(0)
		m.GenChargeAccess()
		v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
		var v33 interp.Value
		if v30.T == types.IntType && v32.T == types.IntType {
			v33 = interp.Value{T: types.IntType, I: int64(int32(v30.I * v32.I))}
		} else {
			v33 = m.GenBinaryOp(token.Star, v30, v32, types.IntType, diff_framereuse_pos[53])
		}
		var v34 interp.Value
		if v28.T == types.IntType && v33.T == types.IntType {
			v34 = interp.Value{T: types.IntType, I: int64(int32(v28.I + v33.I))}
		} else {
			v34 = m.GenBinaryOp(token.Plus, v28, v33, types.IntType, diff_framereuse_pos[54])
		}
		v23[1] = v34
		v35 := diff_framereuse_f_rq(m, v23, diff_framereuse_pos[55])
		m.GenPutArgs(v23)
		ret = v35
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_framereuse_f_nq(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 2 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "nq", len(args), 2)
	}
	f := m.GenPushFrame(diff_framereuse_spec_nq)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	var v1 interp.Value
	if args[1].T == types.IntType {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsInteger() {
		v1 = interp.Value{T: types.IntType, I: int64(int32(args[1].I))}
	} else {
		v1 = m.GenConvert(args[1], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, types.IntType, v1)
	ret := m.GenExec(f, diff_framereuse_b_nq)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	var r interp.Value
	if ret.T == types.IntType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.IntType, I: int64(int32(ret.I))}
	} else {
		r = m.GenConvert(ret, types.IntType, pos)
	}
	return r
}

func diff_framereuse_b_nq(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		_ = v2
	}
	{
		m.GenStep()
		v3 := f.LocalAt(0)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		v5 := f.LocalAt(2)
		v6 := interp.Value{T: types.PointerTo(types.IntType), Ptr: core.Pointer{Addr: v5.Base, Prov: v5}}
		v7 := core.Pointer{Addr: v6.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 0}).I)*4, Prov: v6.Ptr.Prov}
		var v8 interp.Value
		if v4.T == types.IntType {
			v8 = v4
		} else if v4.T != nil && v4.T.IsInteger() {
			v8 = interp.Value{T: types.IntType, I: int64(int32(v4.I))}
		} else {
			v8 = m.GenConvert(v4, types.IntType, diff_framereuse_pos[56])
		}
		m.GenStoreValue(v7, types.IntType, v8, diff_framereuse_pos[56])
		_ = v8
	}
	{
		m.GenStep()
		v9 := f.LocalAt(1)
		m.GenChargeAccess()
		v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
		var v11 interp.Value
		if v10.T == types.IntType {
			v11 = interp.Value{T: types.IntType, I: int64(int32(v10.I & 255))}
		} else {
			v11 = m.GenBinaryOp(token.Amp, v10, (interp.Value{T: types.IntType, I: 255}), types.IntType, diff_framereuse_pos[57])
		}
		v12 := f.LocalAt(2)
		v13 := interp.Value{T: types.PointerTo(types.IntType), Ptr: core.Pointer{Addr: v12.Base, Prov: v12}}
		v14 := core.Pointer{Addr: v13.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 1}).I)*4, Prov: v13.Ptr.Prov}
		var v15 interp.Value
		if v11.T == types.IntType {
			v15 = v11
		} else if v11.T != nil && v11.T.IsInteger() {
			v15 = interp.Value{T: types.IntType, I: int64(int32(v11.I))}
		} else {
			v15 = m.GenConvert(v11, types.IntType, diff_framereuse_pos[58])
		}
		m.GenStoreValue(v14, types.IntType, v15, diff_framereuse_pos[58])
		_ = v15
	}
	{
		m.GenStep()
		v16 := f.LocalAt(0)
		m.GenChargeAccess()
		v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
		v18 := f.LocalAt(1)
		m.GenChargeAccess()
		v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
		var v20 interp.Value
		if v17.T == types.IntType && v19.T == types.IntType {
			v20 = interp.Value{T: types.IntType, I: int64(int32(v17.I ^ v19.I))}
		} else {
			v20 = m.GenBinaryOp(token.Caret, v17, v19, types.IntType, diff_framereuse_pos[59])
		}
		v21 := f.LocalAt(2)
		v22 := interp.Value{T: types.PointerTo(types.IntType), Ptr: core.Pointer{Addr: v21.Base, Prov: v21}}
		v23 := core.Pointer{Addr: v22.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 2}).I)*4, Prov: v22.Ptr.Prov}
		var v24 interp.Value
		if v20.T == types.IntType {
			v24 = v20
		} else if v20.T != nil && v20.T.IsInteger() {
			v24 = interp.Value{T: types.IntType, I: int64(int32(v20.I))}
		} else {
			v24 = m.GenConvert(v20, types.IntType, diff_framereuse_pos[60])
		}
		m.GenStoreValue(v23, types.IntType, v24, diff_framereuse_pos[60])
		_ = v24
	}
	{
		m.GenStep()
		m.GenStep()
		v25 := m.GenArgs(2)
		v26 := f.LocalAt(0)
		m.GenChargeAccess()
		v27 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v26.Data[0:])))}
		v25[0] = v27
		v28 := f.LocalAt(1)
		m.GenChargeAccess()
		v29 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v28.Data[0:])))}
		v30 := f.LocalAt(2)
		v31 := interp.Value{T: types.PointerTo(types.IntType), Ptr: core.Pointer{Addr: v30.Base, Prov: v30}}
		v32 := f.LocalAt(0)
		m.GenChargeAccess()
		v33 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v32.Data[0:])))}
		var v34 interp.Value
		v34 = m.GenBinaryOp(token.Percent, v33, (interp.Value{T: types.IntType, I: 4}), types.IntType, diff_framereuse_pos[61])
		v35 := core.Pointer{Addr: v31.Ptr.Addr + uint64(v34.I)*4, Prov: v31.Ptr.Prov}
		v36 := m.GenLoadValue(v35, types.IntType, diff_framereuse_pos[62], -1, 7)
		var v37 interp.Value
		if v29.T == types.IntType && v36.T == types.IntType {
			v37 = interp.Value{T: types.IntType, I: int64(int32(v29.I + v36.I))}
		} else {
			v37 = m.GenBinaryOp(token.Plus, v29, v36, types.IntType, diff_framereuse_pos[63])
		}
		var v38 interp.Value
		if v37.T == types.IntType {
			v38 = interp.Value{T: types.IntType, I: int64(int32(v37.I & 65535))}
		} else {
			v38 = m.GenBinaryOp(token.Amp, v37, (interp.Value{T: types.IntType, I: 65535}), types.IntType, diff_framereuse_pos[64])
		}
		v25[1] = v38
		v39 := diff_framereuse_f_rq(m, v25, diff_framereuse_pos[65])
		m.GenPutArgs(v25)
		ret = v39
		if interp.GenLive {
			return
		}
	}
	return
}

func diff_framereuse_f_deep(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "deep", len(args), 1)
	}
	f := m.GenPushFrame(diff_framereuse_spec_deep)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, diff_framereuse_b_deep)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	var r interp.Value
	if ret.T == types.IntType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.IntType, I: int64(int32(ret.I))}
	} else {
		r = m.GenConvert(ret, types.IntType, pos)
	}
	return r
}

func diff_framereuse_b_deep(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		m.GenStep()
		v1 := m.GenArgs(2)
		v2 := f.LocalAt(0)
		m.GenChargeAccess()
		v3 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v2.Data[0:])))}
		v1[0] = v3
		v1[1] = (interp.Value{T: types.IntType, I: 0})
		v4 := diff_framereuse_f_rq(m, v1, diff_framereuse_pos[66])
		m.GenPutArgs(v1)
		m.GenStep()
		v5 := m.GenArgs(2)
		v6 := f.LocalAt(0)
		m.GenChargeAccess()
		v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
		v5[0] = v7
		v5[1] = (interp.Value{T: types.IntType, I: 1})
		v8 := diff_framereuse_f_rq(m, v5, diff_framereuse_pos[67])
		m.GenPutArgs(v5)
		var v9 interp.Value
		if v4.T == types.IntType && v8.T == types.IntType {
			v9 = interp.Value{T: types.IntType, I: int64(int32(v4.I + v8.I))}
		} else {
			v9 = m.GenBinaryOp(token.Plus, v4, v8, types.IntType, diff_framereuse_pos[68])
		}
		ret = v9
		if interp.GenLive {
			return
		}
	}
	return
}
