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
	{File: "scan.c", Line: 5, Col: 9},
	{File: "scan.c", Line: 6, Col: 12},
	{File: "scan.c", Line: 6, Col: 16},
}

var scan_spec_scan = &mem.FrameSpec{Canary: "canary:scan", Size: 12, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "buf (scan)", Off: 0, Size: 8},
	{Name: "i (scan)", Off: 8, Size: 4},
}}

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
	f := m.GenPushFrame(scan_spec_scan)
	ret := m.GenExec(f, scan_b_scan)
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

func scan_b_scan(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		_ = v0
	}
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStoreRaw(v1, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		v2 := f.LocalAt(0)
		v3 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v2.Base, Prov: v2}}
		v4 := core.Pointer{Addr: v3.Ptr.Addr + uint64((interp.Value{T: types.IntType, I: 0}).I)*1, Prov: v3.Ptr.Prov}
		m.GenStoreValue(v4, types.CharType, (interp.Value{T: types.CharType, I: 97}), scan_pos[0])
		_ = (interp.Value{T: types.CharType, I: 97})
	}
	{
		m.GenStep()
		for {
			v5 := f.LocalAt(0)
			v6 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v5.Base, Prov: v5}}
			v7 := f.LocalAt(1)
			m.GenChargeAccess()
			v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
			v9 := core.Pointer{Addr: v6.Ptr.Addr + uint64(v8.I)*1, Prov: v6.Ptr.Prov}
			v10 := m.GenLoadValue(v9, types.CharType, scan_pos[1], -1, 1)
			var v11 interp.Value
			if v10.T == types.CharType {
				if int64(int32(v10.I)) != 47 {
					v11 = interp.Value{T: types.IntType, I: 1}
				} else {
					v11 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v11 = m.GenBinaryOp(token.NotEq, v10, (interp.Value{T: types.IntType, I: 47}), types.IntType, scan_pos[2])
			}
			if !v11.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				v12 := f.LocalAt(1)
				m.GenChargeAccess()
				v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
				v14 := interp.Value{T: v13.T, I: int64(int32(v13.I + 1))}
				m.GenStoreRaw(v12, 0, types.IntType, v14)
				_ = v13
			}
		}
	}
	{
		m.GenStep()
		v15 := f.LocalAt(1)
		m.GenChargeAccess()
		v16 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v15.Data[0:])))}
		ret = v16
		if interp.GenLive {
			return
		}
	}
	return
}
