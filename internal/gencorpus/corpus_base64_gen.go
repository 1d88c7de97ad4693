// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 1392492828ae2c4e9b7c661a12238aa5e2898227e61c61ac90ae3cf81cb4831d.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var corpus_base64_pos = []token.Pos{
	{File: "t.c", Line: 9, Col: 16},
	{File: "t.c", Line: 9, Col: 20},
	{File: "t.c", Line: 10, Col: 38},
	{File: "t.c", Line: 10, Col: 21},
	{File: "t.c", Line: 10, Col: 42},
	{File: "t.c", Line: 11, Col: 40},
	{File: "t.c", Line: 11, Col: 38},
	{File: "t.c", Line: 11, Col: 21},
	{File: "t.c", Line: 11, Col: 44},
	{File: "t.c", Line: 10, Col: 49},
	{File: "t.c", Line: 12, Col: 39},
	{File: "t.c", Line: 12, Col: 37},
	{File: "t.c", Line: 12, Col: 20},
	{File: "t.c", Line: 11, Col: 50},
	{File: "t.c", Line: 10, Col: 3},
	{File: "t.c", Line: 13, Col: 26},
	{File: "t.c", Line: 13, Col: 33},
	{File: "t.c", Line: 13, Col: 22},
	{File: "t.c", Line: 13, Col: 12},
	{File: "t.c", Line: 14, Col: 26},
	{File: "t.c", Line: 14, Col: 33},
	{File: "t.c", Line: 14, Col: 22},
	{File: "t.c", Line: 14, Col: 12},
	{File: "t.c", Line: 15, Col: 26},
	{File: "t.c", Line: 15, Col: 32},
	{File: "t.c", Line: 15, Col: 22},
	{File: "t.c", Line: 15, Col: 12},
	{File: "t.c", Line: 16, Col: 25},
	{File: "t.c", Line: 16, Col: 22},
	{File: "t.c", Line: 16, Col: 12},
	{File: "t.c", Line: 9, Col: 27},
	{File: "t.c", Line: 18, Col: 8},
	{File: "t.c", Line: 18, Col: 12},
	{File: "t.c", Line: 19, Col: 37},
	{File: "t.c", Line: 19, Col: 20},
	{File: "t.c", Line: 19, Col: 41},
	{File: "t.c", Line: 19, Col: 3},
	{File: "t.c", Line: 20, Col: 26},
	{File: "t.c", Line: 20, Col: 33},
	{File: "t.c", Line: 20, Col: 22},
	{File: "t.c", Line: 20, Col: 12},
	{File: "t.c", Line: 21, Col: 26},
	{File: "t.c", Line: 21, Col: 33},
	{File: "t.c", Line: 21, Col: 22},
	{File: "t.c", Line: 21, Col: 12},
	{File: "t.c", Line: 22, Col: 12},
	{File: "t.c", Line: 23, Col: 12},
	{File: "t.c", Line: 24, Col: 15},
	{File: "t.c", Line: 24, Col: 19},
	{File: "t.c", Line: 25, Col: 38},
	{File: "t.c", Line: 25, Col: 21},
	{File: "t.c", Line: 25, Col: 42},
	{File: "t.c", Line: 26, Col: 40},
	{File: "t.c", Line: 26, Col: 38},
	{File: "t.c", Line: 26, Col: 21},
	{File: "t.c", Line: 26, Col: 44},
	{File: "t.c", Line: 25, Col: 49},
	{File: "t.c", Line: 25, Col: 3},
	{File: "t.c", Line: 27, Col: 26},
	{File: "t.c", Line: 27, Col: 33},
	{File: "t.c", Line: 27, Col: 22},
	{File: "t.c", Line: 27, Col: 12},
	{File: "t.c", Line: 28, Col: 26},
	{File: "t.c", Line: 28, Col: 33},
	{File: "t.c", Line: 28, Col: 22},
	{File: "t.c", Line: 28, Col: 12},
	{File: "t.c", Line: 29, Col: 26},
	{File: "t.c", Line: 29, Col: 32},
	{File: "t.c", Line: 29, Col: 22},
	{File: "t.c", Line: 29, Col: 12},
	{File: "t.c", Line: 30, Col: 12},
	{File: "t.c", Line: 32, Col: 9},
	{File: "t.c", Line: 37, Col: 24},
	{File: "t.c", Line: 37, Col: 2},
	{File: "t.c", Line: 38, Col: 8},
	{File: "t.c", Line: 40, Col: 17},
	{File: "t.c", Line: 40, Col: 9},
	{File: "t.c", Line: 45, Col: 9},
	{File: "t.c", Line: 45, Col: 16},
	{File: "t.c", Line: 45, Col: 20},
	{File: "t.c", Line: 48, Col: 17},
	{File: "t.c", Line: 48, Col: 26},
	{File: "t.c", Line: 48, Col: 35},
	{File: "t.c", Line: 48, Col: 39},
	{File: "t.c", Line: 49, Col: 11},
	{File: "t.c", Line: 49, Col: 29},
	{File: "t.c", Line: 49, Col: 26},
	{File: "t.c", Line: 49, Col: 17},
	{File: "t.c", Line: 49, Col: 6},
	{File: "t.c", Line: 50, Col: 9},
	{File: "t.c", Line: 52, Col: 12},
	{File: "t.c", Line: 52, Col: 17},
	{File: "t.c", Line: 52, Col: 5},
	{File: "t.c", Line: 53, Col: 12},
	{File: "t.c", Line: 53, Col: 40},
	{File: "t.c", Line: 53, Col: 47},
	{File: "t.c", Line: 53, Col: 30},
	{File: "t.c", Line: 53, Col: 28},
	{File: "t.c", Line: 54, Col: 12},
	{File: "t.c", Line: 54, Col: 40},
	{File: "t.c", Line: 54, Col: 46},
	{File: "t.c", Line: 54, Col: 30},
	{File: "t.c", Line: 54, Col: 28},
	{File: "t.c", Line: 55, Col: 12},
	{File: "t.c", Line: 55, Col: 39},
	{File: "t.c", Line: 55, Col: 30},
	{File: "t.c", Line: 55, Col: 28},
	{File: "t.c", Line: 56, Col: 6},
	{File: "t.c", Line: 58, Col: 9},
	{File: "t.c", Line: 64, Col: 2},
	{File: "t.c", Line: 65, Col: 38},
	{File: "t.c", Line: 65, Col: 26},
	{File: "t.c", Line: 65, Col: 20},
	{File: "t.c", Line: 65, Col: 2},
	{File: "t.c", Line: 66, Col: 8},
	{File: "t.c", Line: 67, Col: 12},
	{File: "t.c", Line: 67, Col: 46},
	{File: "t.c", Line: 68, Col: 12},
	{File: "t.c", Line: 69, Col: 12},
	{File: "t.c", Line: 69, Col: 23},
	{File: "t.c", Line: 71, Col: 12},
	{File: "t.c", Line: 72, Col: 12},
	{File: "t.c", Line: 72, Col: 26},
	{File: "t.c", Line: 73, Col: 12},
	{File: "t.c", Line: 74, Col: 12},
	{File: "t.c", Line: 74, Col: 23},
	{File: "t.c", Line: 75, Col: 12},
	{File: "t.c", Line: 76, Col: 12},
	{File: "t.c", Line: 76, Col: 26},
	{File: "t.c", Line: 77, Col: 12},
	{File: "t.c", Line: 78, Col: 12},
	{File: "t.c", Line: 78, Col: 24},
}

var corpus_base64_t0 *types.Type
var corpus_base64_t1 *types.Type

var corpus_base64_spec_b64_encode = &mem.FrameSpec{Canary: "canary:b64_encode", Size: 44, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "in (b64_encode)", Off: 0, Size: 8},
	{Name: "n (b64_encode)", Off: 8, Size: 4},
	{Name: "out (b64_encode)", Off: 16, Size: 8},
	{Name: "i (b64_encode)", Off: 24, Size: 4},
	{Name: "o (b64_encode)", Off: 28, Size: 4},
	{Name: "v (b64_encode)", Off: 32, Size: 4},
	{Name: "v (b64_encode)", Off: 36, Size: 4},
	{Name: "v (b64_encode)", Off: 40, Size: 4},
}}
var corpus_base64_spec_sixbits = &mem.FrameSpec{Canary: "canary:sixbits", Size: 16, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "c (sixbits)", Off: 0, Size: 1},
	{Name: "p (sixbits)", Off: 8, Size: 8},
}}
var corpus_base64_spec_b64_decode = &mem.FrameSpec{Canary: "canary:b64_decode", Size: 32, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "in (b64_decode)", Off: 0, Size: 8},
	{Name: "out (b64_decode)", Off: 8, Size: 8},
	{Name: "o (b64_decode)", Off: 16, Size: 4},
	{Name: "v (b64_decode)", Off: 20, Size: 4},
	{Name: "bits (b64_decode)", Off: 24, Size: 4},
	{Name: "j (b64_decode)", Off: 28, Size: 4},
}}
var corpus_base64_spec_main = &mem.FrameSpec{Canary: "canary:main", Size: 268, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "enc (main)", Off: 0, Size: 128},
	{Name: "dec (main)", Off: 128, Size: 128},
	{Name: "msg (main)", Off: 256, Size: 8},
	{Name: "n (main)", Off: 264, Size: 4},
}}

var corpus_base64_prog *interp.GenProgram

func init() {
	corpus_base64_t0 = types.PointerTo(types.CharType)
	corpus_base64_t1 = types.PointerTo(types.VoidType)
	corpus_base64_prog = &interp.GenProgram{
		Hash:     "1392492828ae2c4e9b7c661a12238aa5e2898227e61c61ac90ae3cf81cb4831d",
		NumSites: 45,
		Builtins: []string{"strchr", "strlen", "strcmp"},
		Funcs: map[string]interp.GenFn{
			"b64_encode": corpus_base64_f_b64_encode,
			"sixbits":    corpus_base64_f_sixbits,
			"b64_decode": corpus_base64_f_b64_decode,
			"main":       corpus_base64_f_main,
		},
	}
	interp.RegisterGenerated(corpus_base64_prog)
}

func corpus_base64_f_b64_encode(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "b64_encode", len(args), 3)
	}
	f := m.GenPushFrame(corpus_base64_spec_b64_encode)
	var v0 interp.Value
	if args[0].T == corpus_base64_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: corpus_base64_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], corpus_base64_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, corpus_base64_t0, v0)
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
	if args[2].T == corpus_base64_t0 {
		v2 = args[2]
	} else if args[2].T != nil && args[2].T.IsPointer() {
		v2 = interp.Value{T: corpus_base64_t0, Ptr: args[2].Ptr}
	} else {
		v2 = m.GenConvert(args[2], corpus_base64_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(2), 0, corpus_base64_t0, v2)
	ret := m.GenExec(f, corpus_base64_b_b64_encode)
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

func corpus_base64_b_b64_encode(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		_ = v3
		v4 := f.LocalAt(4)
		m.GenStoreRaw(v4, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v5 := f.LocalAt(3)
			m.GenStoreRaw(v5, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v6 := f.LocalAt(3)
			m.GenChargeAccess()
			v7 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v6.Data[0:])))}
			var v8 interp.Value
			if v7.T == types.IntType {
				v8 = interp.Value{T: types.IntType, I: int64(int32(v7.I + 2))}
			} else {
				v8 = m.GenBinaryOp(token.Plus, v7, (interp.Value{T: types.IntType, I: 2}), types.IntType, corpus_base64_pos[0])
			}
			v9 := f.LocalAt(1)
			m.GenChargeAccess()
			v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
			var v11 interp.Value
			if v8.T == types.IntType && v10.T == types.IntType {
				if v8.I < v10.I {
					v11 = interp.Value{T: types.IntType, I: 1}
				} else {
					v11 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v11 = m.GenBinaryOp(token.Lt, v8, v10, types.IntType, corpus_base64_pos[1])
			}
			if !v11.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v12 := f.LocalAt(5)
					v13 := f.LocalAt(0)
					v14 := m.GenLoadRaw(v13, 0, corpus_base64_t0, 0)
					v15 := f.LocalAt(3)
					m.GenChargeAccess()
					v16 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v15.Data[0:])))}
					v17 := core.Pointer{Addr: v14.Ptr.Addr + uint64(v16.I)*1, Prov: v14.Ptr.Prov}
					v18 := m.GenLoadValue(v17, types.CharType, corpus_base64_pos[2], -1, 0)
					var v19 interp.Value
					if v18.T == types.UCharType {
						v19 = v18
					} else if v18.T != nil && v18.T.IsInteger() {
						v19 = interp.Value{T: types.UCharType, I: int64(uint8(v18.I))}
					} else {
						v19 = m.GenConvert(v18, types.UCharType, corpus_base64_pos[3])
					}
					var v20 interp.Value
					v20 = m.GenBinaryOp(token.Shl, v19, (interp.Value{T: types.IntType, I: 16}), types.IntType, corpus_base64_pos[4])
					v21 := f.LocalAt(0)
					v22 := m.GenLoadRaw(v21, 0, corpus_base64_t0, 1)
					v23 := f.LocalAt(3)
					m.GenChargeAccess()
					v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
					var v25 interp.Value
					if v24.T == types.IntType {
						v25 = interp.Value{T: types.IntType, I: int64(int32(v24.I + 1))}
					} else {
						v25 = m.GenBinaryOp(token.Plus, v24, (interp.Value{T: types.IntType, I: 1}), types.IntType, corpus_base64_pos[5])
					}
					v26 := core.Pointer{Addr: v22.Ptr.Addr + uint64(v25.I)*1, Prov: v22.Ptr.Prov}
					v27 := m.GenLoadValue(v26, types.CharType, corpus_base64_pos[6], -1, 1)
					var v28 interp.Value
					if v27.T == types.UCharType {
						v28 = v27
					} else if v27.T != nil && v27.T.IsInteger() {
						v28 = interp.Value{T: types.UCharType, I: int64(uint8(v27.I))}
					} else {
						v28 = m.GenConvert(v27, types.UCharType, corpus_base64_pos[7])
					}
					var v29 interp.Value
					v29 = m.GenBinaryOp(token.Shl, v28, (interp.Value{T: types.IntType, I: 8}), types.IntType, corpus_base64_pos[8])
					var v30 interp.Value
					if v20.T == types.IntType && v29.T == types.IntType {
						v30 = interp.Value{T: types.IntType, I: int64(int32(v20.I | v29.I))}
					} else {
						v30 = m.GenBinaryOp(token.Pipe, v20, v29, types.IntType, corpus_base64_pos[9])
					}
					v31 := f.LocalAt(0)
					v32 := m.GenLoadRaw(v31, 0, corpus_base64_t0, 2)
					v33 := f.LocalAt(3)
					m.GenChargeAccess()
					v34 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v33.Data[0:])))}
					var v35 interp.Value
					if v34.T == types.IntType {
						v35 = interp.Value{T: types.IntType, I: int64(int32(v34.I + 2))}
					} else {
						v35 = m.GenBinaryOp(token.Plus, v34, (interp.Value{T: types.IntType, I: 2}), types.IntType, corpus_base64_pos[10])
					}
					v36 := core.Pointer{Addr: v32.Ptr.Addr + uint64(v35.I)*1, Prov: v32.Ptr.Prov}
					v37 := m.GenLoadValue(v36, types.CharType, corpus_base64_pos[11], -1, 2)
					var v38 interp.Value
					if v37.T == types.UCharType {
						v38 = v37
					} else if v37.T != nil && v37.T.IsInteger() {
						v38 = interp.Value{T: types.UCharType, I: int64(uint8(v37.I))}
					} else {
						v38 = m.GenConvert(v37, types.UCharType, corpus_base64_pos[12])
					}
					var v39 interp.Value
					if v30.T == types.IntType && v38.T == types.UCharType {
						v39 = interp.Value{T: types.IntType, I: int64(int32(v30.I | int64(int32(v38.I))))}
					} else {
						v39 = m.GenBinaryOp(token.Pipe, v30, v38, types.IntType, corpus_base64_pos[13])
					}
					var v40 interp.Value
					if v39.T == types.UIntType {
						v40 = v39
					} else if v39.T != nil && v39.T.IsInteger() {
						v40 = interp.Value{T: types.UIntType, I: int64(uint32(v39.I))}
					} else {
						v40 = m.GenConvert(v39, types.UIntType, corpus_base64_pos[14])
					}
					m.GenStoreRaw(v12, 0, types.UIntType, v40)
				}
				{
					m.GenStep()
					v41 := m.GenGlobal(0)
					v42 := m.GenLoadRaw(v41, 0, corpus_base64_t0, 3)
					v43 := f.LocalAt(5)
					m.GenChargeAccess()
					v44 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v43.Data[0:]))}
					var v45 interp.Value
					v45 = m.GenBinaryOp(token.Shr, v44, (interp.Value{T: types.IntType, I: 18}), types.UIntType, corpus_base64_pos[15])
					var v46 interp.Value
					if v45.T == types.UIntType {
						v46 = interp.Value{T: types.UIntType, I: int64(uint32(v45.I & 63))}
					} else {
						v46 = m.GenBinaryOp(token.Amp, v45, (interp.Value{T: types.IntType, I: 63}), types.UIntType, corpus_base64_pos[16])
					}
					v47 := core.Pointer{Addr: v42.Ptr.Addr + uint64(v46.I)*1, Prov: v42.Ptr.Prov}
					v48 := m.GenLoadValue(v47, types.CharType, corpus_base64_pos[17], -1, 4)
					v49 := f.LocalAt(2)
					v50 := m.GenLoadRaw(v49, 0, corpus_base64_t0, 4)
					v51 := f.LocalAt(4)
					m.GenChargeAccess()
					v52 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v51.Data[0:])))}
					v53 := interp.Value{T: v52.T, I: int64(int32(v52.I + 1))}
					m.GenStoreRaw(v51, 0, types.IntType, v53)
					v54 := core.Pointer{Addr: v50.Ptr.Addr + uint64(v52.I)*1, Prov: v50.Ptr.Prov}
					var v55 interp.Value
					if v48.T == types.CharType {
						v55 = v48
					} else if v48.T != nil && v48.T.IsInteger() {
						v55 = interp.Value{T: types.CharType, I: int64(int8(v48.I))}
					} else {
						v55 = m.GenConvert(v48, types.CharType, corpus_base64_pos[18])
					}
					m.GenStoreValue(v54, types.CharType, v55, corpus_base64_pos[18])
					_ = v55
				}
				{
					m.GenStep()
					v56 := m.GenGlobal(0)
					v57 := m.GenLoadRaw(v56, 0, corpus_base64_t0, 5)
					v58 := f.LocalAt(5)
					m.GenChargeAccess()
					v59 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v58.Data[0:]))}
					var v60 interp.Value
					v60 = m.GenBinaryOp(token.Shr, v59, (interp.Value{T: types.IntType, I: 12}), types.UIntType, corpus_base64_pos[19])
					var v61 interp.Value
					if v60.T == types.UIntType {
						v61 = interp.Value{T: types.UIntType, I: int64(uint32(v60.I & 63))}
					} else {
						v61 = m.GenBinaryOp(token.Amp, v60, (interp.Value{T: types.IntType, I: 63}), types.UIntType, corpus_base64_pos[20])
					}
					v62 := core.Pointer{Addr: v57.Ptr.Addr + uint64(v61.I)*1, Prov: v57.Ptr.Prov}
					v63 := m.GenLoadValue(v62, types.CharType, corpus_base64_pos[21], -1, 6)
					v64 := f.LocalAt(2)
					v65 := m.GenLoadRaw(v64, 0, corpus_base64_t0, 6)
					v66 := f.LocalAt(4)
					m.GenChargeAccess()
					v67 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v66.Data[0:])))}
					v68 := interp.Value{T: v67.T, I: int64(int32(v67.I + 1))}
					m.GenStoreRaw(v66, 0, types.IntType, v68)
					v69 := core.Pointer{Addr: v65.Ptr.Addr + uint64(v67.I)*1, Prov: v65.Ptr.Prov}
					var v70 interp.Value
					if v63.T == types.CharType {
						v70 = v63
					} else if v63.T != nil && v63.T.IsInteger() {
						v70 = interp.Value{T: types.CharType, I: int64(int8(v63.I))}
					} else {
						v70 = m.GenConvert(v63, types.CharType, corpus_base64_pos[22])
					}
					m.GenStoreValue(v69, types.CharType, v70, corpus_base64_pos[22])
					_ = v70
				}
				{
					m.GenStep()
					v71 := m.GenGlobal(0)
					v72 := m.GenLoadRaw(v71, 0, corpus_base64_t0, 7)
					v73 := f.LocalAt(5)
					m.GenChargeAccess()
					v74 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v73.Data[0:]))}
					var v75 interp.Value
					v75 = m.GenBinaryOp(token.Shr, v74, (interp.Value{T: types.IntType, I: 6}), types.UIntType, corpus_base64_pos[23])
					var v76 interp.Value
					if v75.T == types.UIntType {
						v76 = interp.Value{T: types.UIntType, I: int64(uint32(v75.I & 63))}
					} else {
						v76 = m.GenBinaryOp(token.Amp, v75, (interp.Value{T: types.IntType, I: 63}), types.UIntType, corpus_base64_pos[24])
					}
					v77 := core.Pointer{Addr: v72.Ptr.Addr + uint64(v76.I)*1, Prov: v72.Ptr.Prov}
					v78 := m.GenLoadValue(v77, types.CharType, corpus_base64_pos[25], -1, 8)
					v79 := f.LocalAt(2)
					v80 := m.GenLoadRaw(v79, 0, corpus_base64_t0, 8)
					v81 := f.LocalAt(4)
					m.GenChargeAccess()
					v82 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v81.Data[0:])))}
					v83 := interp.Value{T: v82.T, I: int64(int32(v82.I + 1))}
					m.GenStoreRaw(v81, 0, types.IntType, v83)
					v84 := core.Pointer{Addr: v80.Ptr.Addr + uint64(v82.I)*1, Prov: v80.Ptr.Prov}
					var v85 interp.Value
					if v78.T == types.CharType {
						v85 = v78
					} else if v78.T != nil && v78.T.IsInteger() {
						v85 = interp.Value{T: types.CharType, I: int64(int8(v78.I))}
					} else {
						v85 = m.GenConvert(v78, types.CharType, corpus_base64_pos[26])
					}
					m.GenStoreValue(v84, types.CharType, v85, corpus_base64_pos[26])
					_ = v85
				}
				{
					m.GenStep()
					v86 := m.GenGlobal(0)
					v87 := m.GenLoadRaw(v86, 0, corpus_base64_t0, 9)
					v88 := f.LocalAt(5)
					m.GenChargeAccess()
					v89 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v88.Data[0:]))}
					var v90 interp.Value
					if v89.T == types.UIntType {
						v90 = interp.Value{T: types.UIntType, I: int64(uint32(v89.I & 63))}
					} else {
						v90 = m.GenBinaryOp(token.Amp, v89, (interp.Value{T: types.IntType, I: 63}), types.UIntType, corpus_base64_pos[27])
					}
					v91 := core.Pointer{Addr: v87.Ptr.Addr + uint64(v90.I)*1, Prov: v87.Ptr.Prov}
					v92 := m.GenLoadValue(v91, types.CharType, corpus_base64_pos[28], -1, 10)
					v93 := f.LocalAt(2)
					v94 := m.GenLoadRaw(v93, 0, corpus_base64_t0, 10)
					v95 := f.LocalAt(4)
					m.GenChargeAccess()
					v96 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v95.Data[0:])))}
					v97 := interp.Value{T: v96.T, I: int64(int32(v96.I + 1))}
					m.GenStoreRaw(v95, 0, types.IntType, v97)
					v98 := core.Pointer{Addr: v94.Ptr.Addr + uint64(v96.I)*1, Prov: v94.Ptr.Prov}
					var v99 interp.Value
					if v92.T == types.CharType {
						v99 = v92
					} else if v92.T != nil && v92.T.IsInteger() {
						v99 = interp.Value{T: types.CharType, I: int64(int8(v92.I))}
					} else {
						v99 = m.GenConvert(v92, types.CharType, corpus_base64_pos[29])
					}
					m.GenStoreValue(v98, types.CharType, v99, corpus_base64_pos[29])
					_ = v99
				}
			}
			v100 := f.LocalAt(3)
			m.GenChargeAccess()
			v101 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v100.Data[0:])))}
			var v102 interp.Value
			if v101.T == types.IntType {
				v102 = interp.Value{T: types.IntType, I: int64(int32(v101.I + 3))}
			} else {
				v102 = m.GenBinaryOp(token.Plus, v101, (interp.Value{T: types.IntType, I: 3}), types.IntType, corpus_base64_pos[30])
			}
			var v103 interp.Value
			if v102.T == types.IntType {
				v103 = v102
			} else if v102.T != nil && v102.T.IsInteger() {
				v103 = interp.Value{T: types.IntType, I: int64(int32(v102.I))}
			} else {
				v103 = m.GenConvert(v102, types.IntType, corpus_base64_pos[30])
			}
			m.GenStoreRaw(v100, 0, types.IntType, v103)
			_ = v103
		}
	}
	{
		m.GenStep()
		v104 := f.LocalAt(1)
		m.GenChargeAccess()
		v105 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v104.Data[0:])))}
		v106 := f.LocalAt(3)
		m.GenChargeAccess()
		v107 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v106.Data[0:])))}
		var v108 interp.Value
		if v105.T == types.IntType && v107.T == types.IntType {
			v108 = interp.Value{T: types.IntType, I: int64(int32(v105.I - v107.I))}
		} else {
			v108 = m.GenBinaryOp(token.Minus, v105, v107, types.IntType, corpus_base64_pos[31])
		}
		var v109 interp.Value
		if v108.T == types.IntType {
			if v108.I == 1 {
				v109 = interp.Value{T: types.IntType, I: 1}
			} else {
				v109 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v109 = m.GenBinaryOp(token.EqEq, v108, (interp.Value{T: types.IntType, I: 1}), types.IntType, corpus_base64_pos[32])
		}
		if v109.Truthy() {
			{
				m.GenStep()
				{
					m.GenStep()
					v110 := f.LocalAt(6)
					v111 := f.LocalAt(0)
					v112 := m.GenLoadRaw(v111, 0, corpus_base64_t0, 11)
					v113 := f.LocalAt(3)
					m.GenChargeAccess()
					v114 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v113.Data[0:])))}
					v115 := core.Pointer{Addr: v112.Ptr.Addr + uint64(v114.I)*1, Prov: v112.Ptr.Prov}
					v116 := m.GenLoadValue(v115, types.CharType, corpus_base64_pos[33], -1, 11)
					var v117 interp.Value
					if v116.T == types.UCharType {
						v117 = v116
					} else if v116.T != nil && v116.T.IsInteger() {
						v117 = interp.Value{T: types.UCharType, I: int64(uint8(v116.I))}
					} else {
						v117 = m.GenConvert(v116, types.UCharType, corpus_base64_pos[34])
					}
					var v118 interp.Value
					v118 = m.GenBinaryOp(token.Shl, v117, (interp.Value{T: types.IntType, I: 16}), types.IntType, corpus_base64_pos[35])
					var v119 interp.Value
					if v118.T == types.UIntType {
						v119 = v118
					} else if v118.T != nil && v118.T.IsInteger() {
						v119 = interp.Value{T: types.UIntType, I: int64(uint32(v118.I))}
					} else {
						v119 = m.GenConvert(v118, types.UIntType, corpus_base64_pos[36])
					}
					m.GenStoreRaw(v110, 0, types.UIntType, v119)
				}
				{
					m.GenStep()
					v120 := m.GenGlobal(0)
					v121 := m.GenLoadRaw(v120, 0, corpus_base64_t0, 12)
					v122 := f.LocalAt(6)
					m.GenChargeAccess()
					v123 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v122.Data[0:]))}
					var v124 interp.Value
					v124 = m.GenBinaryOp(token.Shr, v123, (interp.Value{T: types.IntType, I: 18}), types.UIntType, corpus_base64_pos[37])
					var v125 interp.Value
					if v124.T == types.UIntType {
						v125 = interp.Value{T: types.UIntType, I: int64(uint32(v124.I & 63))}
					} else {
						v125 = m.GenBinaryOp(token.Amp, v124, (interp.Value{T: types.IntType, I: 63}), types.UIntType, corpus_base64_pos[38])
					}
					v126 := core.Pointer{Addr: v121.Ptr.Addr + uint64(v125.I)*1, Prov: v121.Ptr.Prov}
					v127 := m.GenLoadValue(v126, types.CharType, corpus_base64_pos[39], -1, 13)
					v128 := f.LocalAt(2)
					v129 := m.GenLoadRaw(v128, 0, corpus_base64_t0, 13)
					v130 := f.LocalAt(4)
					m.GenChargeAccess()
					v131 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v130.Data[0:])))}
					v132 := interp.Value{T: v131.T, I: int64(int32(v131.I + 1))}
					m.GenStoreRaw(v130, 0, types.IntType, v132)
					v133 := core.Pointer{Addr: v129.Ptr.Addr + uint64(v131.I)*1, Prov: v129.Ptr.Prov}
					var v134 interp.Value
					if v127.T == types.CharType {
						v134 = v127
					} else if v127.T != nil && v127.T.IsInteger() {
						v134 = interp.Value{T: types.CharType, I: int64(int8(v127.I))}
					} else {
						v134 = m.GenConvert(v127, types.CharType, corpus_base64_pos[40])
					}
					m.GenStoreValue(v133, types.CharType, v134, corpus_base64_pos[40])
					_ = v134
				}
				{
					m.GenStep()
					v135 := m.GenGlobal(0)
					v136 := m.GenLoadRaw(v135, 0, corpus_base64_t0, 14)
					v137 := f.LocalAt(6)
					m.GenChargeAccess()
					v138 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v137.Data[0:]))}
					var v139 interp.Value
					v139 = m.GenBinaryOp(token.Shr, v138, (interp.Value{T: types.IntType, I: 12}), types.UIntType, corpus_base64_pos[41])
					var v140 interp.Value
					if v139.T == types.UIntType {
						v140 = interp.Value{T: types.UIntType, I: int64(uint32(v139.I & 63))}
					} else {
						v140 = m.GenBinaryOp(token.Amp, v139, (interp.Value{T: types.IntType, I: 63}), types.UIntType, corpus_base64_pos[42])
					}
					v141 := core.Pointer{Addr: v136.Ptr.Addr + uint64(v140.I)*1, Prov: v136.Ptr.Prov}
					v142 := m.GenLoadValue(v141, types.CharType, corpus_base64_pos[43], -1, 15)
					v143 := f.LocalAt(2)
					v144 := m.GenLoadRaw(v143, 0, corpus_base64_t0, 15)
					v145 := f.LocalAt(4)
					m.GenChargeAccess()
					v146 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v145.Data[0:])))}
					v147 := interp.Value{T: v146.T, I: int64(int32(v146.I + 1))}
					m.GenStoreRaw(v145, 0, types.IntType, v147)
					v148 := core.Pointer{Addr: v144.Ptr.Addr + uint64(v146.I)*1, Prov: v144.Ptr.Prov}
					var v149 interp.Value
					if v142.T == types.CharType {
						v149 = v142
					} else if v142.T != nil && v142.T.IsInteger() {
						v149 = interp.Value{T: types.CharType, I: int64(int8(v142.I))}
					} else {
						v149 = m.GenConvert(v142, types.CharType, corpus_base64_pos[44])
					}
					m.GenStoreValue(v148, types.CharType, v149, corpus_base64_pos[44])
					_ = v149
				}
				{
					m.GenStep()
					v150 := f.LocalAt(2)
					v151 := m.GenLoadRaw(v150, 0, corpus_base64_t0, 16)
					v152 := f.LocalAt(4)
					m.GenChargeAccess()
					v153 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v152.Data[0:])))}
					v154 := interp.Value{T: v153.T, I: int64(int32(v153.I + 1))}
					m.GenStoreRaw(v152, 0, types.IntType, v154)
					v155 := core.Pointer{Addr: v151.Ptr.Addr + uint64(v153.I)*1, Prov: v151.Ptr.Prov}
					m.GenStoreValue(v155, types.CharType, (interp.Value{T: types.CharType, I: 61}), corpus_base64_pos[45])
					_ = (interp.Value{T: types.CharType, I: 61})
				}
				{
					m.GenStep()
					v156 := f.LocalAt(2)
					v157 := m.GenLoadRaw(v156, 0, corpus_base64_t0, 17)
					v158 := f.LocalAt(4)
					m.GenChargeAccess()
					v159 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v158.Data[0:])))}
					v160 := interp.Value{T: v159.T, I: int64(int32(v159.I + 1))}
					m.GenStoreRaw(v158, 0, types.IntType, v160)
					v161 := core.Pointer{Addr: v157.Ptr.Addr + uint64(v159.I)*1, Prov: v157.Ptr.Prov}
					m.GenStoreValue(v161, types.CharType, (interp.Value{T: types.CharType, I: 61}), corpus_base64_pos[46])
					_ = (interp.Value{T: types.CharType, I: 61})
				}
			}
		} else {
			{
				m.GenStep()
				v162 := f.LocalAt(1)
				m.GenChargeAccess()
				v163 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v162.Data[0:])))}
				v164 := f.LocalAt(3)
				m.GenChargeAccess()
				v165 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v164.Data[0:])))}
				var v166 interp.Value
				if v163.T == types.IntType && v165.T == types.IntType {
					v166 = interp.Value{T: types.IntType, I: int64(int32(v163.I - v165.I))}
				} else {
					v166 = m.GenBinaryOp(token.Minus, v163, v165, types.IntType, corpus_base64_pos[47])
				}
				var v167 interp.Value
				if v166.T == types.IntType {
					if v166.I == 2 {
						v167 = interp.Value{T: types.IntType, I: 1}
					} else {
						v167 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v167 = m.GenBinaryOp(token.EqEq, v166, (interp.Value{T: types.IntType, I: 2}), types.IntType, corpus_base64_pos[48])
				}
				if v167.Truthy() {
					{
						m.GenStep()
						{
							m.GenStep()
							v168 := f.LocalAt(7)
							v169 := f.LocalAt(0)
							v170 := m.GenLoadRaw(v169, 0, corpus_base64_t0, 18)
							v171 := f.LocalAt(3)
							m.GenChargeAccess()
							v172 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v171.Data[0:])))}
							v173 := core.Pointer{Addr: v170.Ptr.Addr + uint64(v172.I)*1, Prov: v170.Ptr.Prov}
							v174 := m.GenLoadValue(v173, types.CharType, corpus_base64_pos[49], -1, 18)
							var v175 interp.Value
							if v174.T == types.UCharType {
								v175 = v174
							} else if v174.T != nil && v174.T.IsInteger() {
								v175 = interp.Value{T: types.UCharType, I: int64(uint8(v174.I))}
							} else {
								v175 = m.GenConvert(v174, types.UCharType, corpus_base64_pos[50])
							}
							var v176 interp.Value
							v176 = m.GenBinaryOp(token.Shl, v175, (interp.Value{T: types.IntType, I: 16}), types.IntType, corpus_base64_pos[51])
							v177 := f.LocalAt(0)
							v178 := m.GenLoadRaw(v177, 0, corpus_base64_t0, 19)
							v179 := f.LocalAt(3)
							m.GenChargeAccess()
							v180 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v179.Data[0:])))}
							var v181 interp.Value
							if v180.T == types.IntType {
								v181 = interp.Value{T: types.IntType, I: int64(int32(v180.I + 1))}
							} else {
								v181 = m.GenBinaryOp(token.Plus, v180, (interp.Value{T: types.IntType, I: 1}), types.IntType, corpus_base64_pos[52])
							}
							v182 := core.Pointer{Addr: v178.Ptr.Addr + uint64(v181.I)*1, Prov: v178.Ptr.Prov}
							v183 := m.GenLoadValue(v182, types.CharType, corpus_base64_pos[53], -1, 19)
							var v184 interp.Value
							if v183.T == types.UCharType {
								v184 = v183
							} else if v183.T != nil && v183.T.IsInteger() {
								v184 = interp.Value{T: types.UCharType, I: int64(uint8(v183.I))}
							} else {
								v184 = m.GenConvert(v183, types.UCharType, corpus_base64_pos[54])
							}
							var v185 interp.Value
							v185 = m.GenBinaryOp(token.Shl, v184, (interp.Value{T: types.IntType, I: 8}), types.IntType, corpus_base64_pos[55])
							var v186 interp.Value
							if v176.T == types.IntType && v185.T == types.IntType {
								v186 = interp.Value{T: types.IntType, I: int64(int32(v176.I | v185.I))}
							} else {
								v186 = m.GenBinaryOp(token.Pipe, v176, v185, types.IntType, corpus_base64_pos[56])
							}
							var v187 interp.Value
							if v186.T == types.UIntType {
								v187 = v186
							} else if v186.T != nil && v186.T.IsInteger() {
								v187 = interp.Value{T: types.UIntType, I: int64(uint32(v186.I))}
							} else {
								v187 = m.GenConvert(v186, types.UIntType, corpus_base64_pos[57])
							}
							m.GenStoreRaw(v168, 0, types.UIntType, v187)
						}
						{
							m.GenStep()
							v188 := m.GenGlobal(0)
							v189 := m.GenLoadRaw(v188, 0, corpus_base64_t0, 20)
							v190 := f.LocalAt(7)
							m.GenChargeAccess()
							v191 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v190.Data[0:]))}
							var v192 interp.Value
							v192 = m.GenBinaryOp(token.Shr, v191, (interp.Value{T: types.IntType, I: 18}), types.UIntType, corpus_base64_pos[58])
							var v193 interp.Value
							if v192.T == types.UIntType {
								v193 = interp.Value{T: types.UIntType, I: int64(uint32(v192.I & 63))}
							} else {
								v193 = m.GenBinaryOp(token.Amp, v192, (interp.Value{T: types.IntType, I: 63}), types.UIntType, corpus_base64_pos[59])
							}
							v194 := core.Pointer{Addr: v189.Ptr.Addr + uint64(v193.I)*1, Prov: v189.Ptr.Prov}
							v195 := m.GenLoadValue(v194, types.CharType, corpus_base64_pos[60], -1, 21)
							v196 := f.LocalAt(2)
							v197 := m.GenLoadRaw(v196, 0, corpus_base64_t0, 21)
							v198 := f.LocalAt(4)
							m.GenChargeAccess()
							v199 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v198.Data[0:])))}
							v200 := interp.Value{T: v199.T, I: int64(int32(v199.I + 1))}
							m.GenStoreRaw(v198, 0, types.IntType, v200)
							v201 := core.Pointer{Addr: v197.Ptr.Addr + uint64(v199.I)*1, Prov: v197.Ptr.Prov}
							var v202 interp.Value
							if v195.T == types.CharType {
								v202 = v195
							} else if v195.T != nil && v195.T.IsInteger() {
								v202 = interp.Value{T: types.CharType, I: int64(int8(v195.I))}
							} else {
								v202 = m.GenConvert(v195, types.CharType, corpus_base64_pos[61])
							}
							m.GenStoreValue(v201, types.CharType, v202, corpus_base64_pos[61])
							_ = v202
						}
						{
							m.GenStep()
							v203 := m.GenGlobal(0)
							v204 := m.GenLoadRaw(v203, 0, corpus_base64_t0, 22)
							v205 := f.LocalAt(7)
							m.GenChargeAccess()
							v206 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v205.Data[0:]))}
							var v207 interp.Value
							v207 = m.GenBinaryOp(token.Shr, v206, (interp.Value{T: types.IntType, I: 12}), types.UIntType, corpus_base64_pos[62])
							var v208 interp.Value
							if v207.T == types.UIntType {
								v208 = interp.Value{T: types.UIntType, I: int64(uint32(v207.I & 63))}
							} else {
								v208 = m.GenBinaryOp(token.Amp, v207, (interp.Value{T: types.IntType, I: 63}), types.UIntType, corpus_base64_pos[63])
							}
							v209 := core.Pointer{Addr: v204.Ptr.Addr + uint64(v208.I)*1, Prov: v204.Ptr.Prov}
							v210 := m.GenLoadValue(v209, types.CharType, corpus_base64_pos[64], -1, 23)
							v211 := f.LocalAt(2)
							v212 := m.GenLoadRaw(v211, 0, corpus_base64_t0, 23)
							v213 := f.LocalAt(4)
							m.GenChargeAccess()
							v214 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v213.Data[0:])))}
							v215 := interp.Value{T: v214.T, I: int64(int32(v214.I + 1))}
							m.GenStoreRaw(v213, 0, types.IntType, v215)
							v216 := core.Pointer{Addr: v212.Ptr.Addr + uint64(v214.I)*1, Prov: v212.Ptr.Prov}
							var v217 interp.Value
							if v210.T == types.CharType {
								v217 = v210
							} else if v210.T != nil && v210.T.IsInteger() {
								v217 = interp.Value{T: types.CharType, I: int64(int8(v210.I))}
							} else {
								v217 = m.GenConvert(v210, types.CharType, corpus_base64_pos[65])
							}
							m.GenStoreValue(v216, types.CharType, v217, corpus_base64_pos[65])
							_ = v217
						}
						{
							m.GenStep()
							v218 := m.GenGlobal(0)
							v219 := m.GenLoadRaw(v218, 0, corpus_base64_t0, 24)
							v220 := f.LocalAt(7)
							m.GenChargeAccess()
							v221 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v220.Data[0:]))}
							var v222 interp.Value
							v222 = m.GenBinaryOp(token.Shr, v221, (interp.Value{T: types.IntType, I: 6}), types.UIntType, corpus_base64_pos[66])
							var v223 interp.Value
							if v222.T == types.UIntType {
								v223 = interp.Value{T: types.UIntType, I: int64(uint32(v222.I & 63))}
							} else {
								v223 = m.GenBinaryOp(token.Amp, v222, (interp.Value{T: types.IntType, I: 63}), types.UIntType, corpus_base64_pos[67])
							}
							v224 := core.Pointer{Addr: v219.Ptr.Addr + uint64(v223.I)*1, Prov: v219.Ptr.Prov}
							v225 := m.GenLoadValue(v224, types.CharType, corpus_base64_pos[68], -1, 25)
							v226 := f.LocalAt(2)
							v227 := m.GenLoadRaw(v226, 0, corpus_base64_t0, 25)
							v228 := f.LocalAt(4)
							m.GenChargeAccess()
							v229 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v228.Data[0:])))}
							v230 := interp.Value{T: v229.T, I: int64(int32(v229.I + 1))}
							m.GenStoreRaw(v228, 0, types.IntType, v230)
							v231 := core.Pointer{Addr: v227.Ptr.Addr + uint64(v229.I)*1, Prov: v227.Ptr.Prov}
							var v232 interp.Value
							if v225.T == types.CharType {
								v232 = v225
							} else if v225.T != nil && v225.T.IsInteger() {
								v232 = interp.Value{T: types.CharType, I: int64(int8(v225.I))}
							} else {
								v232 = m.GenConvert(v225, types.CharType, corpus_base64_pos[69])
							}
							m.GenStoreValue(v231, types.CharType, v232, corpus_base64_pos[69])
							_ = v232
						}
						{
							m.GenStep()
							v233 := f.LocalAt(2)
							v234 := m.GenLoadRaw(v233, 0, corpus_base64_t0, 26)
							v235 := f.LocalAt(4)
							m.GenChargeAccess()
							v236 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v235.Data[0:])))}
							v237 := interp.Value{T: v236.T, I: int64(int32(v236.I + 1))}
							m.GenStoreRaw(v235, 0, types.IntType, v237)
							v238 := core.Pointer{Addr: v234.Ptr.Addr + uint64(v236.I)*1, Prov: v234.Ptr.Prov}
							m.GenStoreValue(v238, types.CharType, (interp.Value{T: types.CharType, I: 61}), corpus_base64_pos[70])
							_ = (interp.Value{T: types.CharType, I: 61})
						}
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v239 := f.LocalAt(2)
		v240 := m.GenLoadRaw(v239, 0, corpus_base64_t0, 27)
		v241 := f.LocalAt(4)
		m.GenChargeAccess()
		v242 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v241.Data[0:])))}
		v243 := core.Pointer{Addr: v240.Ptr.Addr + uint64(v242.I)*1, Prov: v240.Ptr.Prov}
		m.GenStoreValue(v243, types.CharType, (interp.Value{T: types.CharType, I: 0}), corpus_base64_pos[71])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		v244 := f.LocalAt(4)
		m.GenChargeAccess()
		v245 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v244.Data[0:])))}
		ret = v245
		if interp.GenLive {
			return
		}
	}
	return
}

func corpus_base64_f_sixbits(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "sixbits", len(args), 1)
	}
	f := m.GenPushFrame(corpus_base64_spec_sixbits)
	var v0 interp.Value
	if args[0].T == types.CharType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.CharType, I: int64(int8(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.CharType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.CharType, v0)
	ret := m.GenExec(f, corpus_base64_b_sixbits)
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

func corpus_base64_b_sixbits(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		m.GenStep()
		v2 := m.GenArgs(2)
		v3 := m.GenGlobal(0)
		v4 := m.GenLoadRaw(v3, 0, corpus_base64_t0, 28)
		v2[0] = v4
		v5 := f.LocalAt(0)
		m.GenChargeAccess()
		v6 := interp.Value{T: types.CharType, I: int64(int8(v5.Data[0]))}
		v2[1] = v6
		v7 := m.GenBuiltin(0, "strchr", corpus_base64_pos[72])(m, corpus_base64_pos[72], v2)
		m.GenPutArgs(v2)
		var v8 interp.Value
		if v7.T == corpus_base64_t0 {
			v8 = v7
		} else if v7.T != nil && v7.T.IsPointer() {
			v8 = interp.Value{T: corpus_base64_t0, Ptr: v7.Ptr}
		} else {
			v8 = m.GenConvert(v7, corpus_base64_t0, corpus_base64_pos[72])
		}
		var v9 interp.Value
		if v8.T == corpus_base64_t0 {
			v9 = v8
		} else if v8.T != nil && v8.T.IsPointer() {
			v9 = interp.Value{T: corpus_base64_t0, Ptr: v8.Ptr}
		} else {
			v9 = m.GenConvert(v8, corpus_base64_t0, corpus_base64_pos[73])
		}
		m.GenStoreRaw(v1, 0, corpus_base64_t0, v9)
	}
	{
		m.GenStep()
		v10 := f.LocalAt(1)
		v11 := m.GenLoadRaw(v10, 0, corpus_base64_t0, 29)
		var v12 interp.Value
		if v11.T != nil && v11.T.IsPointer() && (interp.Value{T: corpus_base64_t1}).T != nil && (interp.Value{T: corpus_base64_t1}).T.IsPointer() {
			if v11.Ptr.Addr == (interp.Value{T: corpus_base64_t1}).Ptr.Addr {
				v12 = interp.Value{T: types.IntType, I: 1}
			} else {
				v12 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v12 = m.GenBinaryOp(token.EqEq, v11, (interp.Value{T: corpus_base64_t1}), types.IntType, corpus_base64_pos[74])
		}
		if v12.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: -1})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		v13 := f.LocalAt(1)
		v14 := m.GenLoadRaw(v13, 0, corpus_base64_t0, 30)
		v15 := m.GenGlobal(0)
		v16 := m.GenLoadRaw(v15, 0, corpus_base64_t0, 31)
		var v17 interp.Value
		if v14.T != nil && v14.T.IsPointer() && v16.T != nil && v16.T.IsPointer() {
			v17 = interp.Value{T: types.LongType, I: (int64(v14.Ptr.Addr) - int64(v16.Ptr.Addr)) / 1}
		} else {
			v17 = m.GenBinaryOp(token.Minus, v14, v16, types.LongType, corpus_base64_pos[75])
		}
		var v18 interp.Value
		if v17.T == types.IntType {
			v18 = v17
		} else if v17.T != nil && v17.T.IsInteger() {
			v18 = interp.Value{T: types.IntType, I: int64(int32(v17.I))}
		} else {
			v18 = m.GenConvert(v17, types.IntType, corpus_base64_pos[76])
		}
		ret = v18
		if interp.GenLive {
			return
		}
	}
	return
}

func corpus_base64_f_b64_decode(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 2 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "b64_decode", len(args), 2)
	}
	f := m.GenPushFrame(corpus_base64_spec_b64_decode)
	var v0 interp.Value
	if args[0].T == corpus_base64_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: corpus_base64_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], corpus_base64_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, corpus_base64_t0, v0)
	var v1 interp.Value
	if args[1].T == corpus_base64_t0 {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsPointer() {
		v1 = interp.Value{T: corpus_base64_t0, Ptr: args[1].Ptr}
	} else {
		v1 = m.GenConvert(args[1], corpus_base64_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, corpus_base64_t0, v1)
	ret := m.GenExec(f, corpus_base64_b_b64_decode)
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

func corpus_base64_b_b64_decode(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		m.GenStoreRaw(v2, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		for {
			var v3 interp.Value
			v4 := f.LocalAt(0)
			v5 := m.GenLoadRaw(v4, 0, corpus_base64_t0, 32)
			v6 := m.GenLoadValue(v5.Ptr, types.CharType, corpus_base64_pos[77], -1, 28)
			if !v6.Truthy() {
				v3 = interp.Value{T: types.IntType, I: 0}
			} else {
				v7 := f.LocalAt(0)
				v8 := m.GenLoadRaw(v7, 0, corpus_base64_t0, 33)
				v9 := m.GenLoadValue(v8.Ptr, types.CharType, corpus_base64_pos[78], -1, 29)
				var v10 interp.Value
				if v9.T == types.CharType {
					if int64(int32(v9.I)) != 61 {
						v10 = interp.Value{T: types.IntType, I: 1}
					} else {
						v10 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v10 = m.GenBinaryOp(token.NotEq, v9, (interp.Value{T: types.IntType, I: 61}), types.IntType, corpus_base64_pos[79])
				}
				if v10.Truthy() {
					v3 = interp.Value{T: types.IntType, I: 1}
				} else {
					v3 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v3.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v11 := f.LocalAt(3)
					m.GenStoreRaw(v11, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
					v12 := f.LocalAt(4)
					m.GenStoreRaw(v12, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
				}
				{
					m.GenStep()
					v13 := f.LocalAt(5)
					_ = v13
				}
				{
					m.GenStep()
					{
						m.GenStep()
						v14 := f.LocalAt(5)
						m.GenStoreRaw(v14, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
						_ = (interp.Value{T: types.IntType, I: 0})
					}
					for {
						var v15 interp.Value
						var v16 interp.Value
						v17 := f.LocalAt(5)
						m.GenChargeAccess()
						v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
						var v19 interp.Value
						if v18.T == types.IntType {
							if v18.I < 4 {
								v19 = interp.Value{T: types.IntType, I: 1}
							} else {
								v19 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v19 = m.GenBinaryOp(token.Lt, v18, (interp.Value{T: types.IntType, I: 4}), types.IntType, corpus_base64_pos[80])
						}
						if !v19.Truthy() {
							v16 = interp.Value{T: types.IntType, I: 0}
						} else {
							v20 := f.LocalAt(0)
							v21 := m.GenLoadRaw(v20, 0, corpus_base64_t0, 34)
							v22 := f.LocalAt(5)
							m.GenChargeAccess()
							v23 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v22.Data[0:])))}
							v24 := core.Pointer{Addr: v21.Ptr.Addr + uint64(v23.I)*1, Prov: v21.Ptr.Prov}
							v25 := m.GenLoadValue(v24, types.CharType, corpus_base64_pos[81], -1, 30)
							if v25.Truthy() {
								v16 = interp.Value{T: types.IntType, I: 1}
							} else {
								v16 = interp.Value{T: types.IntType, I: 0}
							}
						}
						if !v16.Truthy() {
							v15 = interp.Value{T: types.IntType, I: 0}
						} else {
							v26 := f.LocalAt(0)
							v27 := m.GenLoadRaw(v26, 0, corpus_base64_t0, 35)
							v28 := f.LocalAt(5)
							m.GenChargeAccess()
							v29 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v28.Data[0:])))}
							v30 := core.Pointer{Addr: v27.Ptr.Addr + uint64(v29.I)*1, Prov: v27.Ptr.Prov}
							v31 := m.GenLoadValue(v30, types.CharType, corpus_base64_pos[82], -1, 31)
							var v32 interp.Value
							if v31.T == types.CharType {
								if int64(int32(v31.I)) != 61 {
									v32 = interp.Value{T: types.IntType, I: 1}
								} else {
									v32 = interp.Value{T: types.IntType, I: 0}
								}
							} else {
								v32 = m.GenBinaryOp(token.NotEq, v31, (interp.Value{T: types.IntType, I: 61}), types.IntType, corpus_base64_pos[83])
							}
							if v32.Truthy() {
								v15 = interp.Value{T: types.IntType, I: 1}
							} else {
								v15 = interp.Value{T: types.IntType, I: 0}
							}
						}
						if !v15.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							{
								m.GenStep()
								v33 := f.LocalAt(3)
								m.GenChargeAccess()
								v34 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v33.Data[0:])))}
								var v35 interp.Value
								v35 = m.GenBinaryOp(token.Shl, v34, (interp.Value{T: types.IntType, I: 6}), types.IntType, corpus_base64_pos[84])
								m.GenStep()
								v36 := m.GenArgs(1)
								v37 := f.LocalAt(0)
								v38 := m.GenLoadRaw(v37, 0, corpus_base64_t0, 36)
								v39 := f.LocalAt(5)
								m.GenChargeAccess()
								v40 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v39.Data[0:])))}
								v41 := core.Pointer{Addr: v38.Ptr.Addr + uint64(v40.I)*1, Prov: v38.Ptr.Prov}
								v42 := m.GenLoadValue(v41, types.CharType, corpus_base64_pos[85], -1, 32)
								v36[0] = v42
								v43 := corpus_base64_f_sixbits(m, v36, corpus_base64_pos[86])
								m.GenPutArgs(v36)
								var v44 interp.Value
								if v35.T == types.IntType && v43.T == types.IntType {
									v44 = interp.Value{T: types.IntType, I: int64(int32(v35.I | v43.I))}
								} else {
									v44 = m.GenBinaryOp(token.Pipe, v35, v43, types.IntType, corpus_base64_pos[87])
								}
								v45 := f.LocalAt(3)
								var v46 interp.Value
								if v44.T == types.IntType {
									v46 = v44
								} else if v44.T != nil && v44.T.IsInteger() {
									v46 = interp.Value{T: types.IntType, I: int64(int32(v44.I))}
								} else {
									v46 = m.GenConvert(v44, types.IntType, corpus_base64_pos[88])
								}
								m.GenStoreRaw(v45, 0, types.IntType, v46)
								_ = v46
							}
							{
								m.GenStep()
								v47 := f.LocalAt(4)
								m.GenChargeAccess()
								v48 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v47.Data[0:])))}
								var v49 interp.Value
								if v48.T == types.IntType {
									v49 = interp.Value{T: types.IntType, I: int64(int32(v48.I + 6))}
								} else {
									v49 = m.GenBinaryOp(token.Plus, v48, (interp.Value{T: types.IntType, I: 6}), types.IntType, corpus_base64_pos[89])
								}
								var v50 interp.Value
								if v49.T == types.IntType {
									v50 = v49
								} else if v49.T != nil && v49.T.IsInteger() {
									v50 = interp.Value{T: types.IntType, I: int64(int32(v49.I))}
								} else {
									v50 = m.GenConvert(v49, types.IntType, corpus_base64_pos[89])
								}
								m.GenStoreRaw(v47, 0, types.IntType, v50)
								_ = v50
							}
						}
						v51 := f.LocalAt(5)
						m.GenChargeAccess()
						v52 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v51.Data[0:])))}
						v53 := interp.Value{T: v52.T, I: int64(int32(v52.I + 1))}
						m.GenStoreRaw(v51, 0, types.IntType, v53)
						_ = v52
					}
				}
				{
					m.GenStep()
					v54 := f.LocalAt(3)
					m.GenChargeAccess()
					v55 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v54.Data[0:])))}
					v56 := f.LocalAt(5)
					m.GenChargeAccess()
					v57 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v56.Data[0:])))}
					var v58 interp.Value
					if v57.T == types.IntType {
						v58 = interp.Value{T: types.IntType, I: int64(int32(4 - v57.I))}
					} else {
						v58 = m.GenBinaryOp(token.Minus, (interp.Value{T: types.IntType, I: 4}), v57, types.IntType, corpus_base64_pos[90])
					}
					var v59 interp.Value
					if v58.T == types.IntType {
						v59 = interp.Value{T: types.IntType, I: int64(int32(v58.I * 6))}
					} else {
						v59 = m.GenBinaryOp(token.Star, v58, (interp.Value{T: types.IntType, I: 6}), types.IntType, corpus_base64_pos[91])
					}
					var v60 interp.Value
					v60 = m.GenBinaryOp(token.Shl, v55, v59, types.IntType, corpus_base64_pos[92])
					var v61 interp.Value
					if v60.T == types.IntType {
						v61 = v60
					} else if v60.T != nil && v60.T.IsInteger() {
						v61 = interp.Value{T: types.IntType, I: int64(int32(v60.I))}
					} else {
						v61 = m.GenConvert(v60, types.IntType, corpus_base64_pos[92])
					}
					m.GenStoreRaw(v54, 0, types.IntType, v61)
					_ = v61
				}
				{
					m.GenStep()
					v62 := f.LocalAt(4)
					m.GenChargeAccess()
					v63 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v62.Data[0:])))}
					var v64 interp.Value
					if v63.T == types.IntType {
						if v63.I >= 8 {
							v64 = interp.Value{T: types.IntType, I: 1}
						} else {
							v64 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v64 = m.GenBinaryOp(token.Ge, v63, (interp.Value{T: types.IntType, I: 8}), types.IntType, corpus_base64_pos[93])
					}
					if v64.Truthy() {
						{
							m.GenStep()
							v65 := f.LocalAt(3)
							m.GenChargeAccess()
							v66 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v65.Data[0:])))}
							var v67 interp.Value
							v67 = m.GenBinaryOp(token.Shr, v66, (interp.Value{T: types.IntType, I: 16}), types.IntType, corpus_base64_pos[94])
							var v68 interp.Value
							if v67.T == types.IntType {
								v68 = interp.Value{T: types.IntType, I: int64(int32(v67.I & 255))}
							} else {
								v68 = m.GenBinaryOp(token.Amp, v67, (interp.Value{T: types.IntType, I: 255}), types.IntType, corpus_base64_pos[95])
							}
							var v69 interp.Value
							if v68.T == types.CharType {
								v69 = v68
							} else if v68.T != nil && v68.T.IsInteger() {
								v69 = interp.Value{T: types.CharType, I: int64(int8(v68.I))}
							} else {
								v69 = m.GenConvert(v68, types.CharType, corpus_base64_pos[96])
							}
							v70 := f.LocalAt(1)
							v71 := m.GenLoadRaw(v70, 0, corpus_base64_t0, 37)
							v72 := f.LocalAt(2)
							m.GenChargeAccess()
							v73 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v72.Data[0:])))}
							v74 := interp.Value{T: v73.T, I: int64(int32(v73.I + 1))}
							m.GenStoreRaw(v72, 0, types.IntType, v74)
							v75 := core.Pointer{Addr: v71.Ptr.Addr + uint64(v73.I)*1, Prov: v71.Ptr.Prov}
							var v76 interp.Value
							if v69.T == types.CharType {
								v76 = v69
							} else if v69.T != nil && v69.T.IsInteger() {
								v76 = interp.Value{T: types.CharType, I: int64(int8(v69.I))}
							} else {
								v76 = m.GenConvert(v69, types.CharType, corpus_base64_pos[97])
							}
							m.GenStoreValue(v75, types.CharType, v76, corpus_base64_pos[97])
							_ = v76
						}
					}
				}
				{
					m.GenStep()
					v77 := f.LocalAt(4)
					m.GenChargeAccess()
					v78 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v77.Data[0:])))}
					var v79 interp.Value
					if v78.T == types.IntType {
						if v78.I >= 16 {
							v79 = interp.Value{T: types.IntType, I: 1}
						} else {
							v79 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v79 = m.GenBinaryOp(token.Ge, v78, (interp.Value{T: types.IntType, I: 16}), types.IntType, corpus_base64_pos[98])
					}
					if v79.Truthy() {
						{
							m.GenStep()
							v80 := f.LocalAt(3)
							m.GenChargeAccess()
							v81 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v80.Data[0:])))}
							var v82 interp.Value
							v82 = m.GenBinaryOp(token.Shr, v81, (interp.Value{T: types.IntType, I: 8}), types.IntType, corpus_base64_pos[99])
							var v83 interp.Value
							if v82.T == types.IntType {
								v83 = interp.Value{T: types.IntType, I: int64(int32(v82.I & 255))}
							} else {
								v83 = m.GenBinaryOp(token.Amp, v82, (interp.Value{T: types.IntType, I: 255}), types.IntType, corpus_base64_pos[100])
							}
							var v84 interp.Value
							if v83.T == types.CharType {
								v84 = v83
							} else if v83.T != nil && v83.T.IsInteger() {
								v84 = interp.Value{T: types.CharType, I: int64(int8(v83.I))}
							} else {
								v84 = m.GenConvert(v83, types.CharType, corpus_base64_pos[101])
							}
							v85 := f.LocalAt(1)
							v86 := m.GenLoadRaw(v85, 0, corpus_base64_t0, 38)
							v87 := f.LocalAt(2)
							m.GenChargeAccess()
							v88 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v87.Data[0:])))}
							v89 := interp.Value{T: v88.T, I: int64(int32(v88.I + 1))}
							m.GenStoreRaw(v87, 0, types.IntType, v89)
							v90 := core.Pointer{Addr: v86.Ptr.Addr + uint64(v88.I)*1, Prov: v86.Ptr.Prov}
							var v91 interp.Value
							if v84.T == types.CharType {
								v91 = v84
							} else if v84.T != nil && v84.T.IsInteger() {
								v91 = interp.Value{T: types.CharType, I: int64(int8(v84.I))}
							} else {
								v91 = m.GenConvert(v84, types.CharType, corpus_base64_pos[102])
							}
							m.GenStoreValue(v90, types.CharType, v91, corpus_base64_pos[102])
							_ = v91
						}
					}
				}
				{
					m.GenStep()
					v92 := f.LocalAt(4)
					m.GenChargeAccess()
					v93 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v92.Data[0:])))}
					var v94 interp.Value
					if v93.T == types.IntType {
						if v93.I >= 24 {
							v94 = interp.Value{T: types.IntType, I: 1}
						} else {
							v94 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v94 = m.GenBinaryOp(token.Ge, v93, (interp.Value{T: types.IntType, I: 24}), types.IntType, corpus_base64_pos[103])
					}
					if v94.Truthy() {
						{
							m.GenStep()
							v95 := f.LocalAt(3)
							m.GenChargeAccess()
							v96 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v95.Data[0:])))}
							var v97 interp.Value
							if v96.T == types.IntType {
								v97 = interp.Value{T: types.IntType, I: int64(int32(v96.I & 255))}
							} else {
								v97 = m.GenBinaryOp(token.Amp, v96, (interp.Value{T: types.IntType, I: 255}), types.IntType, corpus_base64_pos[104])
							}
							var v98 interp.Value
							if v97.T == types.CharType {
								v98 = v97
							} else if v97.T != nil && v97.T.IsInteger() {
								v98 = interp.Value{T: types.CharType, I: int64(int8(v97.I))}
							} else {
								v98 = m.GenConvert(v97, types.CharType, corpus_base64_pos[105])
							}
							v99 := f.LocalAt(1)
							v100 := m.GenLoadRaw(v99, 0, corpus_base64_t0, 39)
							v101 := f.LocalAt(2)
							m.GenChargeAccess()
							v102 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v101.Data[0:])))}
							v103 := interp.Value{T: v102.T, I: int64(int32(v102.I + 1))}
							m.GenStoreRaw(v101, 0, types.IntType, v103)
							v104 := core.Pointer{Addr: v100.Ptr.Addr + uint64(v102.I)*1, Prov: v100.Ptr.Prov}
							var v105 interp.Value
							if v98.T == types.CharType {
								v105 = v98
							} else if v98.T != nil && v98.T.IsInteger() {
								v105 = interp.Value{T: types.CharType, I: int64(int8(v98.I))}
							} else {
								v105 = m.GenConvert(v98, types.CharType, corpus_base64_pos[106])
							}
							m.GenStoreValue(v104, types.CharType, v105, corpus_base64_pos[106])
							_ = v105
						}
					}
				}
				{
					m.GenStep()
					v106 := f.LocalAt(0)
					v107 := m.GenLoadRaw(v106, 0, corpus_base64_t0, 40)
					v108 := f.LocalAt(5)
					m.GenChargeAccess()
					v109 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v108.Data[0:])))}
					var v110 interp.Value
					if v107.T != nil && v107.T.IsPointer() {
						v110 = interp.Value{T: v107.T, Ptr: core.Pointer{Addr: v107.Ptr.Addr + uint64(v109.I*1), Prov: v107.Ptr.Prov}}
					} else {
						v110 = m.GenBinaryOp(token.Plus, v107, v109, corpus_base64_t0, corpus_base64_pos[107])
					}
					var v111 interp.Value
					if v110.T == corpus_base64_t0 {
						v111 = v110
					} else if v110.T != nil && v110.T.IsPointer() {
						v111 = interp.Value{T: corpus_base64_t0, Ptr: v110.Ptr}
					} else {
						v111 = m.GenConvert(v110, corpus_base64_t0, corpus_base64_pos[107])
					}
					m.GenStoreRaw(v106, 0, corpus_base64_t0, v111)
					_ = v111
				}
			}
		}
	}
	{
		m.GenStep()
		v112 := f.LocalAt(1)
		v113 := m.GenLoadRaw(v112, 0, corpus_base64_t0, 41)
		v114 := f.LocalAt(2)
		m.GenChargeAccess()
		v115 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v114.Data[0:])))}
		v116 := core.Pointer{Addr: v113.Ptr.Addr + uint64(v115.I)*1, Prov: v113.Ptr.Prov}
		m.GenStoreValue(v116, types.CharType, (interp.Value{T: types.CharType, I: 0}), corpus_base64_pos[108])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		v117 := f.LocalAt(2)
		m.GenChargeAccess()
		v118 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v117.Data[0:])))}
		ret = v118
		if interp.GenLive {
			return
		}
	}
	return
}

func corpus_base64_f_main(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "main", len(args), 0)
	}
	f := m.GenPushFrame(corpus_base64_spec_main)
	ret := m.GenExec(f, corpus_base64_b_main)
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

func corpus_base64_b_main(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		_ = v0
		v1 := f.LocalAt(1)
		_ = v1
	}
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		v3 := m.GenLiteral(1)
		v4 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v3.Base, Prov: v3}}
		var v5 interp.Value
		if v4.T == corpus_base64_t0 {
			v5 = v4
		} else if v4.T != nil && v4.T.IsPointer() {
			v5 = interp.Value{T: corpus_base64_t0, Ptr: v4.Ptr}
		} else {
			v5 = m.GenConvert(v4, corpus_base64_t0, corpus_base64_pos[109])
		}
		m.GenStoreRaw(v2, 0, corpus_base64_t0, v5)
	}
	{
		m.GenStep()
		v6 := f.LocalAt(3)
		m.GenStep()
		v7 := m.GenArgs(3)
		v8 := f.LocalAt(2)
		v9 := m.GenLoadRaw(v8, 0, corpus_base64_t0, 42)
		v7[0] = v9
		m.GenStep()
		v10 := m.GenArgs(1)
		v11 := f.LocalAt(2)
		v12 := m.GenLoadRaw(v11, 0, corpus_base64_t0, 43)
		v10[0] = v12
		v13 := m.GenBuiltin(1, "strlen", corpus_base64_pos[110])(m, corpus_base64_pos[110], v10)
		m.GenPutArgs(v10)
		var v14 interp.Value
		if v13.T == types.ULongType {
			v14 = v13
		} else if v13.T != nil && v13.T.IsInteger() {
			v14 = interp.Value{T: types.ULongType, I: v13.I}
		} else {
			v14 = m.GenConvert(v13, types.ULongType, corpus_base64_pos[110])
		}
		var v15 interp.Value
		if v14.T == types.IntType {
			v15 = v14
		} else if v14.T != nil && v14.T.IsInteger() {
			v15 = interp.Value{T: types.IntType, I: int64(int32(v14.I))}
		} else {
			v15 = m.GenConvert(v14, types.IntType, corpus_base64_pos[111])
		}
		v7[1] = v15
		v16 := f.LocalAt(0)
		v17 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v16.Base, Prov: v16}}
		v7[2] = v17
		v18 := corpus_base64_f_b64_encode(m, v7, corpus_base64_pos[112])
		m.GenPutArgs(v7)
		var v19 interp.Value
		if v18.T == types.IntType {
			v19 = v18
		} else if v18.T != nil && v18.T.IsInteger() {
			v19 = interp.Value{T: types.IntType, I: int64(int32(v18.I))}
		} else {
			v19 = m.GenConvert(v18, types.IntType, corpus_base64_pos[113])
		}
		m.GenStoreRaw(v6, 0, types.IntType, v19)
	}
	{
		m.GenStep()
		v20 := f.LocalAt(3)
		m.GenChargeAccess()
		v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
		var v22 interp.Value
		if v21.T == types.IntType {
			if v21.I <= 0 {
				v22 = interp.Value{T: types.IntType, I: 1}
			} else {
				v22 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v22 = m.GenBinaryOp(token.Le, v21, (interp.Value{T: types.IntType, I: 0}), types.IntType, corpus_base64_pos[114])
		}
		if v22.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 1})
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
		v25 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v24.Base, Prov: v24}}
		v23[0] = v25
		v26 := m.GenLiteral(2)
		v27 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v26.Base, Prov: v26}}
		v23[1] = v27
		v28 := m.GenBuiltin(2, "strcmp", corpus_base64_pos[115])(m, corpus_base64_pos[115], v23)
		m.GenPutArgs(v23)
		var v29 interp.Value
		if v28.T == types.IntType {
			v29 = v28
		} else if v28.T != nil && v28.T.IsInteger() {
			v29 = interp.Value{T: types.IntType, I: int64(int32(v28.I))}
		} else {
			v29 = m.GenConvert(v28, types.IntType, corpus_base64_pos[115])
		}
		var v30 interp.Value
		if v29.T == types.IntType {
			if v29.I != 0 {
				v30 = interp.Value{T: types.IntType, I: 1}
			} else {
				v30 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v30 = m.GenBinaryOp(token.NotEq, v29, (interp.Value{T: types.IntType, I: 0}), types.IntType, corpus_base64_pos[116])
		}
		if v30.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 2})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v31 := m.GenArgs(2)
		v32 := f.LocalAt(0)
		v33 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v32.Base, Prov: v32}}
		v31[0] = v33
		v34 := f.LocalAt(1)
		v35 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v34.Base, Prov: v34}}
		v31[1] = v35
		v36 := corpus_base64_f_b64_decode(m, v31, corpus_base64_pos[117])
		m.GenPutArgs(v31)
		_ = v36
	}
	{
		m.GenStep()
		m.GenStep()
		v37 := m.GenArgs(2)
		v38 := f.LocalAt(1)
		v39 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v38.Base, Prov: v38}}
		v37[0] = v39
		v40 := f.LocalAt(2)
		v41 := m.GenLoadRaw(v40, 0, corpus_base64_t0, 44)
		v37[1] = v41
		v42 := m.GenBuiltin(2, "strcmp", corpus_base64_pos[118])(m, corpus_base64_pos[118], v37)
		m.GenPutArgs(v37)
		var v43 interp.Value
		if v42.T == types.IntType {
			v43 = v42
		} else if v42.T != nil && v42.T.IsInteger() {
			v43 = interp.Value{T: types.IntType, I: int64(int32(v42.I))}
		} else {
			v43 = m.GenConvert(v42, types.IntType, corpus_base64_pos[118])
		}
		var v44 interp.Value
		if v43.T == types.IntType {
			if v43.I != 0 {
				v44 = interp.Value{T: types.IntType, I: 1}
			} else {
				v44 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v44 = m.GenBinaryOp(token.NotEq, v43, (interp.Value{T: types.IntType, I: 0}), types.IntType, corpus_base64_pos[119])
		}
		if v44.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 3})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v45 := m.GenArgs(3)
		v46 := m.GenLiteral(3)
		v47 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v46.Base, Prov: v46}}
		v45[0] = v47
		v45[1] = (interp.Value{T: types.IntType, I: 1})
		v48 := f.LocalAt(0)
		v49 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v48.Base, Prov: v48}}
		v45[2] = v49
		v50 := corpus_base64_f_b64_encode(m, v45, corpus_base64_pos[120])
		m.GenPutArgs(v45)
		_ = v50
	}
	{
		m.GenStep()
		m.GenStep()
		v51 := m.GenArgs(2)
		v52 := f.LocalAt(0)
		v53 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v52.Base, Prov: v52}}
		v51[0] = v53
		v54 := m.GenLiteral(4)
		v55 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v54.Base, Prov: v54}}
		v51[1] = v55
		v56 := m.GenBuiltin(2, "strcmp", corpus_base64_pos[121])(m, corpus_base64_pos[121], v51)
		m.GenPutArgs(v51)
		var v57 interp.Value
		if v56.T == types.IntType {
			v57 = v56
		} else if v56.T != nil && v56.T.IsInteger() {
			v57 = interp.Value{T: types.IntType, I: int64(int32(v56.I))}
		} else {
			v57 = m.GenConvert(v56, types.IntType, corpus_base64_pos[121])
		}
		var v58 interp.Value
		if v57.T == types.IntType {
			if v57.I != 0 {
				v58 = interp.Value{T: types.IntType, I: 1}
			} else {
				v58 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v58 = m.GenBinaryOp(token.NotEq, v57, (interp.Value{T: types.IntType, I: 0}), types.IntType, corpus_base64_pos[122])
		}
		if v58.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 4})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v59 := m.GenArgs(2)
		v60 := f.LocalAt(0)
		v61 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v60.Base, Prov: v60}}
		v59[0] = v61
		v62 := f.LocalAt(1)
		v63 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v62.Base, Prov: v62}}
		v59[1] = v63
		v64 := corpus_base64_f_b64_decode(m, v59, corpus_base64_pos[123])
		m.GenPutArgs(v59)
		_ = v64
	}
	{
		m.GenStep()
		m.GenStep()
		v65 := m.GenArgs(2)
		v66 := f.LocalAt(1)
		v67 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v66.Base, Prov: v66}}
		v65[0] = v67
		v68 := m.GenLiteral(3)
		v69 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v68.Base, Prov: v68}}
		v65[1] = v69
		v70 := m.GenBuiltin(2, "strcmp", corpus_base64_pos[124])(m, corpus_base64_pos[124], v65)
		m.GenPutArgs(v65)
		var v71 interp.Value
		if v70.T == types.IntType {
			v71 = v70
		} else if v70.T != nil && v70.T.IsInteger() {
			v71 = interp.Value{T: types.IntType, I: int64(int32(v70.I))}
		} else {
			v71 = m.GenConvert(v70, types.IntType, corpus_base64_pos[124])
		}
		var v72 interp.Value
		if v71.T == types.IntType {
			if v71.I != 0 {
				v72 = interp.Value{T: types.IntType, I: 1}
			} else {
				v72 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v72 = m.GenBinaryOp(token.NotEq, v71, (interp.Value{T: types.IntType, I: 0}), types.IntType, corpus_base64_pos[125])
		}
		if v72.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 5})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v73 := m.GenArgs(3)
		v74 := m.GenLiteral(5)
		v75 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v74.Base, Prov: v74}}
		v73[0] = v75
		v73[1] = (interp.Value{T: types.IntType, I: 2})
		v76 := f.LocalAt(0)
		v77 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v76.Base, Prov: v76}}
		v73[2] = v77
		v78 := corpus_base64_f_b64_encode(m, v73, corpus_base64_pos[126])
		m.GenPutArgs(v73)
		_ = v78
	}
	{
		m.GenStep()
		m.GenStep()
		v79 := m.GenArgs(2)
		v80 := f.LocalAt(0)
		v81 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v80.Base, Prov: v80}}
		v79[0] = v81
		v82 := m.GenLiteral(6)
		v83 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v82.Base, Prov: v82}}
		v79[1] = v83
		v84 := m.GenBuiltin(2, "strcmp", corpus_base64_pos[127])(m, corpus_base64_pos[127], v79)
		m.GenPutArgs(v79)
		var v85 interp.Value
		if v84.T == types.IntType {
			v85 = v84
		} else if v84.T != nil && v84.T.IsInteger() {
			v85 = interp.Value{T: types.IntType, I: int64(int32(v84.I))}
		} else {
			v85 = m.GenConvert(v84, types.IntType, corpus_base64_pos[127])
		}
		var v86 interp.Value
		if v85.T == types.IntType {
			if v85.I != 0 {
				v86 = interp.Value{T: types.IntType, I: 1}
			} else {
				v86 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v86 = m.GenBinaryOp(token.NotEq, v85, (interp.Value{T: types.IntType, I: 0}), types.IntType, corpus_base64_pos[128])
		}
		if v86.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 6})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v87 := m.GenArgs(2)
		v88 := f.LocalAt(0)
		v89 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v88.Base, Prov: v88}}
		v87[0] = v89
		v90 := f.LocalAt(1)
		v91 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v90.Base, Prov: v90}}
		v87[1] = v91
		v92 := corpus_base64_f_b64_decode(m, v87, corpus_base64_pos[129])
		m.GenPutArgs(v87)
		_ = v92
	}
	{
		m.GenStep()
		m.GenStep()
		v93 := m.GenArgs(2)
		v94 := f.LocalAt(1)
		v95 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v94.Base, Prov: v94}}
		v93[0] = v95
		v96 := m.GenLiteral(5)
		v97 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v96.Base, Prov: v96}}
		v93[1] = v97
		v98 := m.GenBuiltin(2, "strcmp", corpus_base64_pos[130])(m, corpus_base64_pos[130], v93)
		m.GenPutArgs(v93)
		var v99 interp.Value
		if v98.T == types.IntType {
			v99 = v98
		} else if v98.T != nil && v98.T.IsInteger() {
			v99 = interp.Value{T: types.IntType, I: int64(int32(v98.I))}
		} else {
			v99 = m.GenConvert(v98, types.IntType, corpus_base64_pos[130])
		}
		var v100 interp.Value
		if v99.T == types.IntType {
			if v99.I != 0 {
				v100 = interp.Value{T: types.IntType, I: 1}
			} else {
				v100 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v100 = m.GenBinaryOp(token.NotEq, v99, (interp.Value{T: types.IntType, I: 0}), types.IntType, corpus_base64_pos[131])
		}
		if v100.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: 7})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		ret = (interp.Value{T: types.IntType, I: 0})
		if interp.GenLive {
			return
		}
	}
	return
}
