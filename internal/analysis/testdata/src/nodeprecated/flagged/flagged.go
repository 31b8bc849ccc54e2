// Package flagged exercises nodeprecated: non-test, non-shim callers of
// a function carrying the conventional Deprecated: marker — an
// XContext-named wrapper of the deprecated X included.
package flagged

// OldGet is the legacy lookup.
//
// Deprecated: use Get.
func OldGet(k string) string { return Get(k) }

// Get is the replacement.
func Get(k string) string { return k }

// Lookup still reaches for the deprecated form.
func Lookup(k string) string {
	return OldGet(k) // want "use of deprecated OldGet"
}

// OldGetContext gets no pass for wrapping the deprecated form it is
// named after.
func OldGetContext(k string) string {
	return OldGet(k) // want "use of deprecated OldGet"
}
