// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 3917ff0b40403aa5d3c603815238dee7f93125851ca46495596dd0827fa6de74.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var churn_pos = []token.Pos{
	{File: "churn.c", Line: 5, Col: 16},
	{File: "churn.c", Line: 6, Col: 14},
	{File: "churn.c", Line: 6, Col: 11},
	{File: "churn.c", Line: 6, Col: 5},
}

var churn_spec_churn = &mem.FrameSpec{Canary: "canary:churn", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "n (churn)", Off: 0, Size: 4},
	{Name: "i (churn)", Off: 4, Size: 4},
	{Name: "x (churn)", Off: 8, Size: 4},
}}

var churn_prog *interp.GenProgram

func init() {
	churn_prog = &interp.GenProgram{
		Hash:     "3917ff0b40403aa5d3c603815238dee7f93125851ca46495596dd0827fa6de74",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"churn": churn_f_churn,
		},
	}
	interp.RegisterGenerated(churn_prog)
}

func churn_f_churn(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "churn", len(args), 1)
	}
	f := m.GenPushFrame(churn_spec_churn)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, churn_b_churn)
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

func churn_b_churn(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
		v2 := f.LocalAt(2)
		m.GenStoreRaw(v2, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v3 := f.LocalAt(1)
			m.GenStoreRaw(v3, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v4 := f.LocalAt(1)
			m.GenChargeAccess()
			v5 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v4.Data[0:])))}
			v6 := f.LocalAt(0)
			m.GenChargeAccess()
			v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
			var v8 interp.Value
			if v5.T == types.IntType && v7.T == types.IntType {
				if v5.I < v7.I {
					v8 = interp.Value{T: types.IntType, I: 1}
				} else {
					v8 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v8 = m.GenBinaryOp(token.Lt, v5, v7, types.IntType, churn_pos[0])
			}
			if !v8.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v9 := f.LocalAt(2)
				m.GenChargeAccess()
				v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
				v11 := m.GenGlobal(0)
				v12 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v11.Base, Prov: v11}}
				v13 := f.LocalAt(1)
				m.GenChargeAccess()
				v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
				var v15 interp.Value
				if v14.T == types.IntType {
					v15 = interp.Value{T: types.IntType, I: int64(int32(v14.I & 4095))}
				} else {
					v15 = m.GenBinaryOp(token.Amp, v14, (interp.Value{T: types.IntType, I: 4095}), types.IntType, churn_pos[1])
				}
				v16 := core.Pointer{Addr: v12.Ptr.Addr + uint64(v15.I)*1, Prov: v12.Ptr.Prov}
				v17 := m.GenLoadValue(v16, types.CharType, churn_pos[2], -1, 0)
				var v18 interp.Value
				if v10.T == types.IntType && v17.T == types.CharType {
					v18 = interp.Value{T: types.IntType, I: int64(int32(v10.I + int64(int32(v17.I))))}
				} else {
					v18 = m.GenBinaryOp(token.Plus, v10, v17, types.IntType, churn_pos[3])
				}
				var v19 interp.Value
				if v18.T == types.IntType {
					v19 = v18
				} else if v18.T != nil && v18.T.IsInteger() {
					v19 = interp.Value{T: types.IntType, I: int64(int32(v18.I))}
				} else {
					v19 = m.GenConvert(v18, types.IntType, churn_pos[3])
				}
				m.GenStoreRaw(v9, 0, types.IntType, v19)
				_ = v19
			}
			v20 := f.LocalAt(1)
			m.GenChargeAccess()
			v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
			v22 := interp.Value{T: v21.T, I: int64(int32(v21.I + 1))}
			m.GenStoreRaw(v20, 0, types.IntType, v22)
			_ = v21
		}
	}
	{
		m.GenStep()
		v23 := f.LocalAt(2)
		m.GenChargeAccess()
		v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
		ret = v24
		if interp.GenLive {
			return
		}
	}
	return
}
