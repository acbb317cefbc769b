package wire

import "reflect"

// RegisteredTypes returns every registered payload type by wire name,
// for the fuzz target in the external test package.
func RegisteredTypes() map[string]reflect.Type {
	codecMu.RLock()
	defer codecMu.RUnlock()
	out := make(map[string]reflect.Type, len(codecByType))
	for t, name := range codecByType {
		out[name] = t
	}
	return out
}
