// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash f49004d3daf4dc7982dfee7e005da1edca49551b39b31053f517fc3a46dc3f5b.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var scan_pos = []token.Pos{
	{File: "scan.c", Line: 4, Col: 2},
	{File: "scan.c", Line: 5, Col: 9},
	{File: "scan.c", Line: 6, Col: 12},
	{File: "scan.c", Line: 6, Col: 16},
}

var scan_locals_scan = []mem.LocalSpec{
	{Name: "buf (scan)", Off: 0, Size: 8},
	{Name: "i (scan)", Off: 8, Size: 4},
}

var scan_prog *interp.GenProgram

func init() {
	scan_prog = &interp.GenProgram{
		Hash:     "f49004d3daf4dc7982dfee7e005da1edca49551b39b31053f517fc3a46dc3f5b",
		NumSites: 0,
		Funcs: map[string]interp.GenFn{
			"scan": scan_f_scan,
		},
	}
	interp.RegisterGenerated(scan_prog)
}

func scan_f_scan(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "scan", len(args), 0)
	}
	f := m.GenPushFrame("canary:scan", 12, scan_locals_scan)
	ret := m.GenExec(f, scan_b_scan)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func scan_b_scan(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(1)
		_ = v0
	}
	{
		m.GenStep()
		v1 := f.LocalAt(0)
		v2 := interp.Value{T: types.IntType, I: 0}
		var v3 interp.Value
		if v2.T == types.IntType {
			v3 = v2
		} else {
			v3 = m.GenConvert(v2, types.IntType, scan_pos[0])
		}
		m.GenStoreRaw(v1, 0, types.IntType, v3)
	}
	{
		m.GenStep()
		v4 := interp.Value{T: types.IntType, I: 97}
		v5 := f.LocalAt(1)
		v6 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v5.Base, Prov: v5}}
		v7 := interp.Value{T: types.IntType, I: 0}
		v8 := core.Pointer{Addr: v6.Ptr.Addr + uint64(v7.I)*1, Prov: v6.Ptr.Prov}
		var v9 interp.Value
		if v4.T == types.CharType {
			v9 = v4
		} else {
			v9 = m.GenConvert(v4, types.CharType, scan_pos[1])
		}
		m.GenStoreValue(v8, types.CharType, v9, scan_pos[1])
		_ = v9
	}
	{
		m.GenStep()
		for {
			v10 := f.LocalAt(1)
			v11 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v10.Base, Prov: v10}}
			v12 := f.LocalAt(0)
			m.GenChargeAccess()
			v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
			v14 := core.Pointer{Addr: v11.Ptr.Addr + uint64(v13.I)*1, Prov: v11.Ptr.Prov}
			v15 := m.GenLoadValue(v14, types.CharType, scan_pos[2], -1, 1)
			v16 := interp.Value{T: types.IntType, I: 47}
			var v17 interp.Value
			v17 = m.GenBinaryOp(token.NotEq, v15, v16, types.IntType, scan_pos[3])
			if !v17.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v18 := f.LocalAt(0)
				m.GenChargeAccess()
				v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
				v20 := interp.Value{T: v19.T, I: int64(int32(v19.I + 1))}
				m.GenStoreRaw(v18, 0, types.IntType, v20)
				_ = v19
			}
		}
	}
	{
		m.GenStep()
		v21 := f.LocalAt(0)
		m.GenChargeAccess()
		v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
		ret = v22
		if interp.GenLive {
			return
		}
	}
	return
}
