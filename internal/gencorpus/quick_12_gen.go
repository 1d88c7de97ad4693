// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash ae3b69e021d2725d27fa43128f9cbb9e150fed769a196d19806e75b90599162b.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
	"focc/internal/mem"
)

var quick_12_pos = []token.Pos{
	{File: "t.c", Line: 1, Col: 45},
	{File: "t.c", Line: 1, Col: 51},
	{File: "t.c", Line: 1, Col: 63},
	{File: "t.c", Line: 1, Col: 73},
	{File: "t.c", Line: 1, Col: 90},
	{File: "t.c", Line: 1, Col: 82},
	{File: "t.c", Line: 1, Col: 56},
}

var quick_12_spec_f = &mem.FrameSpec{Canary: "canary:f", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "a (f)", Off: 0, Size: 4},
	{Name: "b (f)", Off: 4, Size: 4},
	{Name: "c (f)", Off: 8, Size: 4},
}}

var quick_12_prog *interp.GenProgram

func init() {
	quick_12_prog = &interp.GenProgram{
		Hash:     "ae3b69e021d2725d27fa43128f9cbb9e150fed769a196d19806e75b90599162b",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"f": quick_12_f_f,
		},
	}
	interp.RegisterGenerated(quick_12_prog)
}

func quick_12_f_f(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "f", len(args), 3)
	}
	f := m.GenPushFrame(quick_12_spec_f)
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
	var v2 interp.Value
	if args[2].T == types.IntType {
		v2 = args[2]
	} else if args[2].T != nil && args[2].T.IsInteger() {
		v2 = interp.Value{T: types.IntType, I: int64(int32(args[2].I))}
	} else {
		v2 = m.GenConvert(args[2], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(2), 0, types.IntType, v2)
	ret := m.GenExec(f, quick_12_b_f)
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

func quick_12_b_f(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(1)
		m.GenChargeAccess()
		v4 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v3.Data[0:])))}
		v5 := interp.Value{T: types.IntType, I: int64(int32(-v4.I))}
		var v6 interp.Value
		v6 = m.GenBinaryOp(token.Shr, v5, (interp.Value{T: types.IntType, I: 4}), types.IntType, quick_12_pos[0])
		v7 := f.LocalAt(2)
		m.GenChargeAccess()
		v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
		var v9 interp.Value
		if v6.T == types.IntType && v8.T == types.IntType {
			v9 = interp.Value{T: types.IntType, I: int64(int32(v6.I & v8.I))}
		} else {
			v9 = m.GenBinaryOp(token.Amp, v6, v8, types.IntType, quick_12_pos[1])
		}
		v10 := f.LocalAt(1)
		m.GenChargeAccess()
		v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
		var v12 interp.Value
		if v11.T == types.IntType {
			if v11.I == -56 {
				v12 = interp.Value{T: types.IntType, I: 1}
			} else {
				v12 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v12 = m.GenBinaryOp(token.EqEq, v11, (interp.Value{T: types.IntType, I: -56}), types.IntType, quick_12_pos[2])
		}
		var v13 interp.Value
		if v12.T == types.IntType {
			v13 = interp.Value{T: types.IntType, I: int64(int32(v12.I * -43))}
		} else {
			v13 = m.GenBinaryOp(token.Star, v12, (interp.Value{T: types.IntType, I: -43}), types.IntType, quick_12_pos[3])
		}
		v14 := f.LocalAt(2)
		m.GenChargeAccess()
		v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
		v16 := interp.Value{T: types.IntType, I: int64(int32(-v15.I))}
		var v17 interp.Value
		v17 = m.GenBinaryOp(token.Slash, v16, (interp.Value{T: types.IntType, I: 1}), types.IntType, quick_12_pos[4])
		var v18 interp.Value
		if v13.T == types.IntType && v17.T == types.IntType {
			v18 = interp.Value{T: types.IntType, I: int64(int32(v13.I * v17.I))}
		} else {
			v18 = m.GenBinaryOp(token.Star, v13, v17, types.IntType, quick_12_pos[5])
		}
		var v19 interp.Value
		if v9.T == types.IntType && v18.T == types.IntType {
			v19 = interp.Value{T: types.IntType, I: int64(int32(v9.I & v18.I))}
		} else {
			v19 = m.GenBinaryOp(token.Amp, v9, v18, types.IntType, quick_12_pos[6])
		}
		ret = v19
		if interp.GenLive {
			return
		}
	}
	return
}
