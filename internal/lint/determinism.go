package lint

import (
	"go/ast"
	"go/types"
)

// determinismPkgs are the build/repair packages whose outputs must be
// byte-identical run to run: the gold standards (wire-label hashes,
// from-scratch vs incremental equality, worker-count invariance) all
// compare their outputs bit for bit.
var determinismPkgs = map[string]bool{
	"distlabel":     true,
	"triangulation": true,
	"packing":       true,
	"nets":          true,
	"churn":         true,
	"objects":       true,
	"nnsearch":      true,
	"routing":       true,
}

// Determinism flags the three classic nondeterminism leaks in the
// build/repair packages:
//
//  1. Map iteration whose order reaches an output slice (append into a
//     slice declared outside the loop, or order-dependent index fills)
//     without a sort over that slice later in the same function.
//  2. time.Now whose result escapes duration measurement — anything
//     other than time.Since/Sub feeding the phase Timings.
//  3. The global math/rand source (package-level rand.Intn etc.),
//     which is unseeded; construction randomness must come from a
//     rand.New(rand.NewSource(seed)) owned by the caller.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "build/repair packages must not leak map order, wall-clock time, or unseeded randomness into outputs",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	base := pass.Path
	if i := lastSlash(base); i >= 0 {
		base = base[i+1:]
	}
	if !determinismPkgs[base] {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapOrder(pass, fd)
			checkTimeNow(pass, fd)
			checkGlobalRand(pass, fd)
		}
	}
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

// --- map iteration order -------------------------------------------------

func checkMapOrder(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := info.Types[rng.X].Type; t == nil {
			return true
		} else if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		loopVars := rangeVarObjects(info, rng)
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			switch nd := m.(type) {
			case *ast.AssignStmt:
				for i, rhs := range nd.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok {
						continue
					}
					id, ok := ast.Unparen(call.Fun).(*ast.Ident)
					if !ok || id.Name != "append" || info.Uses[id] != types.Universe.Lookup("append") {
						continue
					}
					target := appendTargetObject(info, call)
					if target == nil || !declaredOutside(target, rng) {
						continue
					}
					if i < len(nd.Lhs) { // appending back into the outer slice
						if sortedAfter(pass, fd, rng, target) {
							continue
						}
						pass.Reportf(call.Pos(),
							"map iteration order reaches output slice %q via append (no sort follows in %s); iterate sorted keys or sort the result",
							target.Name(), fd.Name.Name)
					}
				}
			}
			return true
		})
		// Index fills: writes out[i] = ... where out is an outer slice
		// and the index does not mention the loop key/value.
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				if t := info.Types[ix.X].Type; t == nil {
					continue
				} else if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
					continue
				}
				base, ok := ast.Unparen(ix.X).(*ast.Ident)
				if !ok {
					continue
				}
				target := objOf(info, base)
				if target == nil || !declaredOutside(target, rng) {
					continue
				}
				if mentionsAny(info, ix.Index, loopVars) {
					continue // keyed by the map key: order-independent
				}
				if sortedAfter(pass, fd, rng, target) {
					continue
				}
				pass.Reportf(ix.Pos(),
					"map iteration order reaches output slice %q via an order-dependent index fill in %s; index by the key or sort afterwards",
					target.Name(), fd.Name.Name)
			}
			return true
		})
		return true
	})
}

func rangeVarObjects(info *types.Info, rng *ast.RangeStmt) map[types.Object]bool {
	vars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := objOf(info, id); obj != nil {
				vars[obj] = true
			}
		}
	}
	return vars
}

func appendTargetObject(info *types.Info, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		return objOf(info, id)
	}
	return nil
}

func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

func mentionsAny(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := objOf(info, id); obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// sortedAfter reports whether obj is passed to a sort.* / slices.Sort*
// call positioned after the range statement in the same function —
// the canonical "collect then canonicalize" pattern.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	info := pass.Info
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return !found
		}
		pkg := calleePkgPath(info, call.Fun)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentionsAny(info, arg, map[types.Object]bool{obj: true}) {
				found = true
			}
		}
		return !found
	})
	return found
}

// --- wall-clock escape ---------------------------------------------------

func checkTimeNow(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info
	parents := parentMap(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPkgCall(info, call, "time", "Now") {
			return true
		}
		parent := parents[call]
		switch p := parent.(type) {
		case *ast.AssignStmt:
			// t := time.Now() — every use of t must stay duration-only.
			for i, rhs := range p.Rhs {
				if ast.Unparen(rhs) != call && rhs != call {
					continue
				}
				if i >= len(p.Lhs) {
					continue
				}
				id, ok := p.Lhs[i].(*ast.Ident)
				if !ok {
					pass.Reportf(call.Pos(), "time.Now result stored into a non-local target in %s; wall clock must not reach build outputs", fd.Name.Name)
					continue
				}
				checkNowUses(pass, fd, objOf(info, id))
			}
		case *ast.CallExpr:
			// Direct argument: only time.Since(time.Now()) shapes allow.
			if !isPkgCall(info, p, "time", "Since") {
				pass.Reportf(call.Pos(), "time.Now used directly outside duration measurement in %s", fd.Name.Name)
			}
		default:
			// time.Now().UnixNano(), struct fields, composites: escape.
			pass.Reportf(call.Pos(), "time.Now escapes duration measurement in %s (only time.Since/Sub phase timings are deterministic-safe)", fd.Name.Name)
		}
		return true
	})
}

// checkNowUses verifies every use of a time.Now-holding variable is a
// time.Since argument, a .Sub operand, or a reassignment.
func checkNowUses(pass *Pass, fd *ast.FuncDecl, obj types.Object) {
	if obj == nil {
		return
	}
	info := pass.Info
	parents := parentMap(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || objOf(info, id) != obj {
			return true
		}
		parent := parents[id]
		switch p := parent.(type) {
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == ast.Node(id) {
					return true // reassignment
				}
			}
			pass.Reportf(id.Pos(), "time.Now value %q escapes duration measurement in %s", obj.Name(), fd.Name.Name)
		case *ast.CallExpr:
			if isPkgCall(info, p, "time", "Since") {
				return true
			}
			// x.Sub(t) — argument position of a Sub method call.
			if sel, ok := ast.Unparen(p.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Sub" {
				return true
			}
			pass.Reportf(id.Pos(), "time.Now value %q escapes duration measurement in %s", obj.Name(), fd.Name.Name)
		case *ast.SelectorExpr:
			// t.Sub(x) is duration-only; anything else (t.UnixNano())
			// escapes.
			if p.Sel.Name == "Sub" {
				return true
			}
			pass.Reportf(id.Pos(), "time.Now value %q escapes duration measurement via .%s in %s", obj.Name(), p.Sel.Name, fd.Name.Name)
		}
		return true
	})
}

// --- unseeded randomness -------------------------------------------------

func checkGlobalRand(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		path := pn.Imported().Path()
		if path != "math/rand" && path != "math/rand/v2" {
			return true
		}
		switch sel.Sel.Name {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return true // constructing a seeded source is the fix
		}
		pass.Reportf(call.Pos(),
			"rand.%s uses the global math/rand source in %s; build paths must draw from a caller-seeded rand.New(rand.NewSource(seed))",
			sel.Sel.Name, fd.Name.Name)
		return true
	})
}
