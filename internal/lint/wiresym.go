package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// WireSym checks encode/decode symmetry in the wire package. Every message
// struct that appears as a case in AppendEncode's type switch must have a
// matching KindX case in Decode's kind switch (and vice versa), and every
// field of the struct must be referenced on both paths. A field written by
// AppendEncode but never read by Decode (or the reverse) silently corrupts the
// frame for every message that follows it — the classic
// added-a-field-to-the-struct-but-not-the-codec bug that round-trip tests
// only catch for the messages they happen to construct with that field set.
//
// The check is syntactic: a field counts as referenced in a case body if it
// appears as a selector (v.Field, m.Field) or a composite-literal key
// within that body.
var WireSym = &Analyzer{
	Name: "wiresym",
	Doc:  "verifies every wire message field is referenced by both Encode and Decode",
	Run:  runWireSym,
}

func runWireSym(pass *Pass) {
	structs := packageStructs(pass.Files)

	encCases := codecCases(pass.Files, "AppendEncode", false)
	decCases := codecCases(pass.Files, "Decode", true)
	if encCases == nil || decCases == nil {
		// Not the codec package (no AppendEncode/Decode switch): nothing to
		// check.
		return
	}

	for _, name := range sortedKeys(encCases) {
		c := encCases[name]
		fields, ok := structs[name]
		if !ok {
			continue // case on a type defined elsewhere; out of scope
		}
		for _, field := range fields {
			if !c.refs[field] {
				pass.Reportf(c.pos,
					"Encode case %s does not reference field %s.%s; the field is silently dropped on the wire",
					name, name, field)
			}
		}
		if _, ok := decCases[name]; !ok {
			pass.Reportf(c.pos,
				"Encode handles %s but Decode has no Kind%s case; frames of this kind cannot be parsed",
				name, name)
		}
	}
	for _, name := range sortedKeys(decCases) {
		c := decCases[name]
		fields, ok := structs[name]
		if !ok {
			continue
		}
		for _, field := range fields {
			if !c.refs[field] {
				pass.Reportf(c.pos,
					"Decode case Kind%s does not reference field %s.%s; the field never round-trips",
					name, name, field)
			}
		}
		if _, ok := encCases[name]; !ok {
			pass.Reportf(c.pos,
				"Decode handles Kind%s but Encode has no %s case; messages of this kind cannot be sent",
				name, name)
		}
	}
}

// packageStructs maps each struct type declared in the package to its named
// field list.
func packageStructs(files []*ast.File) map[string][]string {
	out := make(map[string][]string)
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				var fields []string
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						fields = append(fields, name.Name)
					}
				}
				out[ts.Name.Name] = fields
			}
		}
	}
	return out
}

type codecCase struct {
	pos  token.Pos
	refs map[string]bool
}

// codecCases extracts the per-message cases of the named codec function.
// For AppendEncode (kindSwitch=false) it reads the type switch: `case Hello:`.
// For Decode (kindSwitch=true) it reads the value switch on kind:
// `case KindHello:`, mapping back to the struct name by stripping the
// "Kind" prefix.
func codecCases(files []*ast.File, funcName string, kindSwitch bool) map[string]codecCase {
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != funcName || fd.Recv != nil || fd.Body == nil {
				continue
			}
			out := make(map[string]codecCase)
			collect := func(clauses []ast.Stmt) {
				for _, cs := range clauses {
					cc, ok := cs.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, typ := range cc.List {
						id, ok := typ.(*ast.Ident)
						if !ok {
							continue
						}
						name := id.Name
						if kindSwitch {
							var cut bool
							name, cut = strings.CutPrefix(name, "Kind")
							if !cut {
								continue
							}
						}
						out[name] = codecCase{pos: cc.Pos(), refs: caseRefs(cc)}
					}
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch sw := n.(type) {
				case *ast.TypeSwitchStmt:
					if !kindSwitch {
						collect(sw.Body.List)
					}
				case *ast.SwitchStmt:
					if kindSwitch {
						collect(sw.Body.List)
					}
				}
				return true
			})
			if len(out) > 0 {
				return out
			}
		}
	}
	return nil
}

// caseRefs collects every name that could be a field reference within the
// clause body: selector components (v.Field) and composite-literal keys
// (Struct{Field: ...}).
func caseRefs(cc *ast.CaseClause) map[string]bool {
	refs := make(map[string]bool)
	for _, stmt := range cc.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.SelectorExpr:
				refs[v.Sel.Name] = true
			case *ast.KeyValueExpr:
				if id, ok := v.Key.(*ast.Ident); ok {
					refs[id.Name] = true
				}
			}
			return true
		})
	}
	return refs
}

func sortedKeys(m map[string]codecCase) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
