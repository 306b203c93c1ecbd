package analysis

import "strings"

// Package-level policy: which rules bind which packages. This is the
// "config" half of the suppression story (the //gcslint:allow directive
// is the per-site half): a package is either under a rule's contract or
// it is not, and the decision is reviewable here rather than scattered
// through the tree.
//
// internal/rt is deliberately inside the nondeterminism contract even
// though it is the wall-clock runtime: its two intentional wall reads
// (the run epoch and simNow, through which every clock reading and
// topology stamp goes) carry per-site //gcslint:allow annotations, so
// any NEW wall read added to rt has to be argued for in review instead
// of sliding in silently.

// deterministicPkgs are the packages whose executions must be pure
// functions of the scenario Config (bit-identical reports across reruns
// and worker counts). nondeterminism and maprange bind here.
//
// internal/store and internal/jobd are inside the contract because the
// sweep service's whole design rests on cell results being cacheable
// facts: the store content-addresses configs and the daemon dedupes,
// retries, and resumes against those addresses. Wall time may enter
// only through jobd's injected Clock seam (whose production edge
// carries the per-site allow), never the scheduling or storage logic
// itself.
var deterministicPkgs = map[string]bool{
	"gcs/internal/des":       true,
	"gcs/internal/sim":       true,
	"gcs/internal/gcs":       true,
	"gcs/internal/transport": true,
	"gcs/internal/dyngraph":  true,
	"gcs/internal/fault":     true,
	"gcs/internal/clock":     true,
	"gcs/internal/seam":      true,
	"gcs/internal/rt":        true,
	"gcs/internal/store":     true,
	"gcs/internal/jobd":      true,
}

// maprangeExtraPkgs extends the maprange contract to the CLI: its
// printed tables and CSV/JSON artifacts are diffed byte-for-byte by the
// worker-invariance CI smokes, so map iteration order must not reach
// them either.
var maprangeExtraPkgs = map[string]bool{
	"gcs/cmd/gcsim": true,
}

// seamPkg is the algorithm package the seampurity rule seals: it may
// import only seamAllowedImport plus non-temporal stdlib.
const (
	seamPkg            = "gcs/internal/gcs"
	seamAllowedImport  = "gcs/internal/seam"
	modulePathPrefix   = "gcs/"
	lockorderTargetPkg = "gcs/internal/rt"
)

// normalizePkgPath strips the test-variant decorations cmd/go adds
// ("pkg [pkg.test]", "pkg.test", "pkg_test"), so policy lookups see the
// underlying package.
func normalizePkgPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, ".test")
	path = strings.TrimSuffix(path, "_test")
	return path
}

func appliesTo(a *Analyzer, pkgPath string) bool {
	path := normalizePkgPath(pkgPath)
	switch a.Name {
	case "nondeterminism":
		return deterministicPkgs[path]
	case "maprange":
		return deterministicPkgs[path] || maprangeExtraPkgs[path]
	case "seampurity":
		return path == seamPkg
	case "lockorder":
		return path == lockorderTargetPkg
	case "zeroalloc", "testonly":
		// zeroalloc is annotation-driven, so cheap to run everywhere;
		// testonly's contract is module-wide by definition.
		return strings.HasPrefix(path, modulePathPrefix) || path == "gcs"
	}
	return false
}
