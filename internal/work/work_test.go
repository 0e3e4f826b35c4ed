package work

import (
	"reflect"
	"testing"
)

// distinct returns a Stats whose i-th int64 field holds base+i, so every
// field carries a value no other field shares.
func distinct(t *testing.T, base int64) Stats {
	t.Helper()
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("field %s is %s; the merges assume int64 counters", v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetInt(base + int64(i))
	}
	return s
}

// TestMergesCoverEveryField: Add and AtomicAdd sum every counter and take
// the max of MaxDepth, so a field added later cannot be left out of one
// merge path.
func TestMergesCoverEveryField(t *testing.T) {
	merges := map[string]func(*Stats, Stats){
		"Add":       (*Stats).Add,
		"AtomicAdd": (*Stats).AtomicAdd,
	}
	for name, merge := range merges {
		for _, tc := range []struct{ a, b int64 }{{1, 100}, {100, 1}} {
			a, b := distinct(t, tc.a), distinct(t, tc.b)
			got := a
			merge(&got, b)
			va, vb, vg := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(got)
			for i := 0; i < vg.NumField(); i++ {
				field := vg.Type().Field(i).Name
				want := va.Field(i).Int() + vb.Field(i).Int()
				if field == "MaxDepth" {
					want = max(va.Field(i).Int(), vb.Field(i).Int())
				}
				if vg.Field(i).Int() != want {
					t.Errorf("%s(%d, %d): %s = %d, want %d", name, tc.a, tc.b, field, vg.Field(i).Int(), want)
				}
			}
		}
	}
}
