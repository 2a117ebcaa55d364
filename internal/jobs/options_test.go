package jobs

import (
	"encoding/json"
	"reflect"
	"testing"

	"graphrealize"
	"graphrealize/internal/api"
)

// TestOptionsCodecsKeepEveryField: every non-func field of
// graphrealize.Options survives both codecs that carry Options out of the
// process — the realization API's JSON (api.OptionsOf, then
// OptionsJSON.Options), which the coordinator sends its workers, and
// PersistedOptions, which the WAL and snapshots store. Each field is set
// alone through reflection, so a field added to Options later is covered
// without editing this test: a codec that drops it fails here.
func TestOptionsCodecsKeepEveryField(t *testing.T) {
	typ := reflect.TypeFor[graphrealize.Options]()
	for i := range typ.NumField() {
		f := typ.Field(i)
		want := &graphrealize.Options{}
		v := reflect.ValueOf(want).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Func:
			continue // hooks are reattached, never encoded
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(1) // a valid non-default value of every enum too
		default:
			t.Fatalf("Options.%s has kind %s; teach this test a non-zero value for it", f.Name, f.Type.Kind())
		}

		body, err := json.Marshal(api.OptionsOf(want))
		if err != nil {
			t.Fatal(err)
		}
		var wire api.OptionsJSON
		if err := json.Unmarshal(body, &wire); err != nil {
			t.Fatal(err)
		}
		if got, err := wire.Options(); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("Options.%s through the API JSON: got %+v (err %v), want %+v", f.Name, got, err, want)
		}

		body, err = json.Marshal(persistedOptions(want))
		if err != nil {
			t.Fatal(err)
		}
		var disk PersistedOptions
		if err := json.Unmarshal(body, &disk); err != nil {
			t.Fatal(err)
		}
		if got := disk.options(); !reflect.DeepEqual(got, want) {
			t.Errorf("Options.%s through PersistedOptions: got %+v, want %+v", f.Name, got, want)
		}
	}
}
