// Package all links every in-tree snapshot engine into the binary by
// importing each algorithm package for its engine.Register side effect.
// Consumers that construct engines by name blank-import this package:
//
//	import _ "mpsnap/internal/engine/all"
package all

import (
	_ "mpsnap/internal/baseline/delporte"
	_ "mpsnap/internal/baseline/laaso"
	_ "mpsnap/internal/baseline/stacked"
	_ "mpsnap/internal/baseline/storecollect"
	_ "mpsnap/internal/byzaso"
	_ "mpsnap/internal/eqaso"
	_ "mpsnap/internal/regsnap"
	_ "mpsnap/internal/sso"
)
