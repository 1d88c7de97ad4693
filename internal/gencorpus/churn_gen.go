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
	{File: "churn.c", Line: 4, Col: 2},
	{File: "churn.c", Line: 5, Col: 9},
	{File: "churn.c", Line: 5, Col: 16},
	{File: "churn.c", Line: 6, Col: 14},
	{File: "churn.c", Line: 6, Col: 11},
	{File: "churn.c", Line: 6, Col: 5},
}

var churn_locals_churn = []mem.LocalSpec{
	{Name: "n (churn)", Off: 0, Size: 4},
	{Name: "i (churn)", Off: 4, Size: 4},
	{Name: "x (churn)", Off: 8, Size: 4},
}

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
	f := m.GenPushFrame("canary:churn", 12, churn_locals_churn)
	v0 := m.GenConvert(args[0], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(2), 0, types.IntType, v0)
	ret := m.GenExec(f, churn_b_churn)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func churn_b_churn(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
		v2 := f.LocalAt(0)
		v3 := interp.Value{T: types.IntType, I: 0}
		var v4 interp.Value
		if v3.T == types.IntType {
			v4 = v3
		} else {
			v4 = m.GenConvert(v3, types.IntType, churn_pos[0])
		}
		m.GenStoreRaw(v2, 0, types.IntType, v4)
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v5 := interp.Value{T: types.IntType, I: 0}
			v6 := f.LocalAt(1)
			var v7 interp.Value
			if v5.T == types.IntType {
				v7 = v5
			} else {
				v7 = m.GenConvert(v5, types.IntType, churn_pos[1])
			}
			m.GenStoreRaw(v6, 0, types.IntType, v7)
			_ = v7
		}
		for {
			v8 := f.LocalAt(1)
			m.GenChargeAccess()
			v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
			v10 := f.LocalAt(2)
			m.GenChargeAccess()
			v11 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v10.Data[0:])))}
			var v12 interp.Value
			if v9.T == types.IntType && v11.T == types.IntType {
				if v9.I < v11.I {
					v12 = interp.Value{T: types.IntType, I: 1}
				} else {
					v12 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v12 = m.GenBinaryOp(token.Lt, v9, v11, types.IntType, churn_pos[2])
			}
			if !v12.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v13 := f.LocalAt(0)
				m.GenChargeAccess()
				v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
				v15 := m.GenGlobal(0)
				v16 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v15.Base, Prov: v15}}
				v17 := f.LocalAt(1)
				m.GenChargeAccess()
				v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
				v19 := interp.Value{T: types.IntType, I: 4095}
				var v20 interp.Value
				if v18.T == types.IntType && v19.T == types.IntType {
					v20 = interp.Value{T: types.IntType, I: int64(int32(v18.I & v19.I))}
				} else {
					v20 = m.GenBinaryOp(token.Amp, v18, v19, types.IntType, churn_pos[3])
				}
				v21 := core.Pointer{Addr: v16.Ptr.Addr + uint64(v20.I)*1, Prov: v16.Ptr.Prov}
				v22 := m.GenLoadValue(v21, types.CharType, churn_pos[4], -1, 0)
				var v23 interp.Value
				v23 = m.GenBinaryOp(token.Plus, v14, v22, types.IntType, churn_pos[5])
				var v24 interp.Value
				if v23.T == types.IntType {
					v24 = v23
				} else {
					v24 = m.GenConvert(v23, types.IntType, churn_pos[5])
				}
				m.GenStoreRaw(v13, 0, types.IntType, v24)
				_ = v24
			}
			v25 := f.LocalAt(1)
			m.GenChargeAccess()
			v26 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v25.Data[0:])))}
			v27 := interp.Value{T: v26.T, I: int64(int32(v26.I + 1))}
			m.GenStoreRaw(v25, 0, types.IntType, v27)
			_ = v26
		}
	}
	{
		m.GenStep()
		v28 := f.LocalAt(0)
		m.GenChargeAccess()
		v29 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v28.Data[0:])))}
		ret = v29
		if interp.GenLive {
			return
		}
	}
	return
}
