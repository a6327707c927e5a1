package solver

import (
	"reflect"
	"testing"
)

// TestStatsAddCoversEveryCounter sets each Stats field to 1 in turn and
// checks Add carries exactly that field, so a counter added to the struct
// but not to Add fails here instead of reading zero in every aggregate.
func TestStatsAddCoversEveryCounter(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		var one Stats
		reflect.ValueOf(&one).Elem().Field(i).SetInt(1)
		var sum Stats
		sum.Add(one)
		sum.Add(one)
		want := one
		reflect.ValueOf(&want).Elem().Field(i).SetInt(2)
		if sum != want {
			t.Errorf("Stats.Add drops or misroutes %s: got %+v, want %+v", typ.Field(i).Name, sum, want)
		}
	}
}
