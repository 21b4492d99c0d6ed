package analysis

import (
	"bytes"
	"go/ast"
	"go/token"
	"strings"
)

// The //wlan: directive namespace. Directives are machine-readable
// comments, written without a space after // like //go: directives:
//
//	//wlan:hotpath
//	    In a function's doc comment: the function is a steady-state hot
//	    path and must not contain allocation-inducing constructs
//	    (enforced by the hotpathalloc analyzer).
//
//	//wlan:allow-nondeterminism <reason>
//	    At the end of a flagged line in a sim-deterministic package, or
//	    alone on the line directly above it: the nondeterminism is
//	    audited and harmless — the reason is mandatory and should say
//	    why (e.g. an order-independent reduction). Enforced by the
//	    determinism analyzer, which also rejects unknown or malformed
//	    //wlan: directives so a typo cannot silently disable a contract.
const (
	VerbHotPath             = "hotpath"
	VerbAllowNondeterminism = "allow-nondeterminism"
)

// Directive is one parsed //wlan: comment.
type Directive struct {
	Pos  token.Pos
	Verb string // the word after //wlan:
	Args string // remainder, space-trimmed
	// alone is set when only whitespace precedes the comment on its line.
	alone bool
}

// Known reports whether the directive verb is in the //wlan: namespace.
func (d Directive) Known() bool {
	return d.Verb == VerbHotPath || d.Verb == VerbAllowNondeterminism
}

const directivePrefix = "//wlan:"

// fileDirectives extracts every //wlan: directive from f, parsed from src.
func fileDirectives(fset *token.FileSet, f *ast.File, src []byte) []Directive {
	var out []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := parseDirective(c); ok {
				off := fset.Position(c.Slash).Offset
				lineStart := bytes.LastIndexByte(src[:off], '\n') + 1
				d.alone = len(bytes.TrimSpace(src[lineStart:off])) == 0
				out = append(out, d)
			}
		}
	}
	return out
}

func parseDirective(c *ast.Comment) (Directive, bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return Directive{}, false
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	verb, args, _ := strings.Cut(rest, " ")
	return Directive{Pos: c.Slash, Verb: strings.TrimSpace(verb), Args: strings.TrimSpace(args)}, true
}

// funcDirective returns the directive with the given verb in a function's
// doc comment, if any.
func funcDirective(decl *ast.FuncDecl, verb string) (Directive, bool) {
	if decl.Doc == nil {
		return Directive{}, false
	}
	for _, c := range decl.Doc.List {
		if d, ok := parseDirective(c); ok && d.Verb == verb {
			return d, true
		}
	}
	return Directive{}, false
}
