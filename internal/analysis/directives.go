package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //dipcvet: directive family. Directives are machine-read comments
// through which code declares its relationship to the enforced
// contracts:
//
//	//dipcvet:noalloc
//	    marks a function as a zero-allocation hot path; the noalloc
//	    analyzer then flags every obvious allocation construct in its
//	    body. Placed in the function's doc comment.
//
//	//dipcvet:wallclock-ok <reason>
//	//dipcvet:rand-ok <reason>
//	//dipcvet:unordered-ok <reason>
//	//dipcvet:goroutine-ok <reason>
//	//dipcvet:alloc-ok <reason>
//	//dipcvet:hook-ok <reason>
//	    site exemptions, consumed by detrand (wallclock/rand/unordered/
//	    goroutine), noalloc (alloc) and hooksafe (hook). An
//	    exemption applies to its own source line and the line directly
//	    below it, so it can ride at the end of the offending line or
//	    stand alone above it. The reason is mandatory: an exemption
//	    explains itself or it does not exempt.
const DirectivePrefix = "//dipcvet:"

// Directive is one parsed //dipcvet: comment.
type Directive struct {
	Name   string // e.g. "wallclock-ok"
	Reason string // trailing free text; required for *-ok exemptions
	Pos    token.Pos
}

// Directives indexes every //dipcvet: comment of a package by file and
// line.
type Directives struct {
	fset   *token.FileSet
	byLine map[string]map[int][]Directive // filename -> line -> directives
}

// ParseDirectives extracts the //dipcvet: comments of the files (which
// must have been parsed with comments).
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{fset: fset, byLine: make(map[string]map[int][]Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, ok := parseDirective(c)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				m := d.byLine[pos.Filename]
				if m == nil {
					m = make(map[int][]Directive)
					d.byLine[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], dir)
			}
		}
	}
	return d
}

func parseDirective(c *ast.Comment) (Directive, bool) {
	if !strings.HasPrefix(c.Text, DirectivePrefix) {
		return Directive{}, false
	}
	rest := c.Text[len(DirectivePrefix):]
	name, reason, _ := strings.Cut(rest, " ")
	// A nested comment marker ends the reason, so a testdata line can
	// carry both a directive and a // want expectation.
	if i := strings.Index(reason, "//"); i >= 0 {
		reason = reason[:i]
	}
	return Directive{
		Name:   strings.TrimSpace(name),
		Reason: strings.TrimSpace(reason),
		Pos:    c.Pos(),
	}, name != ""
}

// At returns the named directive covering pos — on the same line as pos
// or on the line directly above — or nil.
func (d *Directives) At(pos token.Pos, name string) *Directive {
	p := d.fset.Position(pos)
	m := d.byLine[p.Filename]
	if m == nil {
		return nil
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for i := range m[line] {
			if m[line][i].Name == name {
				return &m[line][i]
			}
		}
	}
	return nil
}

// FuncDirective returns the named directive from a function
// declaration's doc comment, or nil. This is how //dipcvet:noalloc
// marks a function.
func FuncDirective(fd *ast.FuncDecl, name string) *Directive {
	if fd.Doc == nil {
		return nil
	}
	for _, c := range fd.Doc.List {
		if dir, ok := parseDirective(c); ok && dir.Name == name {
			return &dir
		}
	}
	return nil
}
