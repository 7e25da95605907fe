package core

import (
	"reflect"
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/vaspace"
)

// The driver's per-block and per-chunk tables are the bulk of a run's heap:
// an allocation's block array and a device's chunk array. They must hold no
// pointer, so the GC never scans them and no update of theirs pays a write
// barrier, and they must stay compact.
func TestHotTablesHoldNoPointers(t *testing.T) {
	for _, tc := range []struct {
		typ     reflect.Type
		maxSize uintptr
	}{
		{reflect.TypeOf(vaspace.Block{}), 40},
		{reflect.TypeOf(gpudev.Chunk{}), 32},
	} {
		for _, path := range pointerFields(tc.typ, tc.typ.Name()) {
			t.Errorf("%s holds a pointer: the table must hold only plain scalars", path)
		}
		if size := tc.typ.Size(); size > tc.maxSize {
			t.Errorf("%v is %d bytes, want at most %d", tc.typ, size, tc.maxSize)
		} else {
			t.Logf("%v is %d bytes", tc.typ, size)
		}
	}
}

// pointerFields returns the path of every part of a value of type typ,
// named path, that is or holds a pointer: a pointer, interface, slice, map,
// string, channel or function, at any depth of structs and arrays.
func pointerFields(typ reflect.Type, path string) []string {
	switch typ.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			out = append(out, pointerFields(f.Type, path+"."+f.Name)...)
		}
		return out
	case reflect.Array:
		return pointerFields(typ.Elem(), path+"[i]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
		reflect.Map, reflect.String, reflect.Chan, reflect.Func:
		return []string{path + " (" + typ.Kind().String() + ")"}
	}
	return nil
}
