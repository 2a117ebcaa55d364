package ncc

import (
	"reflect"
	"slices"
	"testing"
)

// TestMessageIDs checks the IDs accessor: empty until WithIDs, WithIDs
// replaces rather than appends, and an over-full message reads as its first
// MaxIDsPerMessage IDs while validate still rejects it.
func TestMessageIDs(t *testing.T) {
	var m Message
	if len(m.IDs()) != 0 {
		t.Fatalf("zero message carries %v", m.IDs())
	}
	m = m.WithIDs(7, 8, 9)
	if got := m.IDs(); !slices.Equal(got, []ID{7, 8, 9}) {
		t.Fatalf("IDs() = %v, want [7 8 9]", got)
	}
	m = m.WithIDs(5)
	if got := m.IDs(); !slices.Equal(got, []ID{5}) {
		t.Fatalf("second WithIDs: IDs() = %v, want [5]", got)
	}
	if m = m.WithIDs(); len(m.IDs()) != 0 {
		t.Fatalf("WithIDs() left %v", m.IDs())
	}
	over := Message{}.WithIDs(1, 2, 3, 4, 5)
	if got := over.IDs(); !slices.Equal(got, []ID{1, 2, 3, 4}) {
		t.Fatalf("over-full IDs() = %v, want [1 2 3 4]", got)
	}
	if err := over.validate(); err == nil || err.Error() != "ncc: message carries 5 IDs, max is 4" {
		t.Fatalf("validate = %v", err)
	}
}

// TestMessagePointerFree keeps Message free of pointers, so the engine's
// inbox buffers stay out of the garbage collector's scan and recycle
// without clearing.
func TestMessagePointerFree(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: Message must hold no pointers", path, typ.Kind())
		}
	}
	check("Message", reflect.TypeOf(Message{}))
}
