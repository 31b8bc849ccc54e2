// Package clean exercises nodeprecated's one exemption: deprecated shims
// layering on deprecated shims.
package clean

// Get is the legacy lookup.
//
// Deprecated: use Lookup.
func Get(k string) string { return k }

// OldLookup layers one shim on another, which shims may do.
//
// Deprecated: use Lookup.
func OldLookup(k string) string { return Get(k) }

// Lookup is the replacement, built without the shims.
func Lookup(k string) string { return k }
