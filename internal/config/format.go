package config

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text exchange format follows the paper's Figure 3: one line per
// program structure, a single-character precision flag in the first
// column, indentation by nesting depth, and entries of the form
//
//	s FUNC03: split()
//	    BBLK04
//	  s INSN13: 0x6f8248 "subsd %xmm1, %xmm0"
//
// Module lines use MODULE01: name. An aggregate entry with a flag
// overrides all flags of its children. A trailing "  ; note" records a
// classification annotation (Node.Note) and is ignored semantically.

// Write renders the configuration in the exchange format.
func (c *Config) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var rec func(n *Node, depth int) error
	rec = func(n *Node, depth int) error {
		flag := n.Flag.String()
		if flag == "" {
			flag = " "
		}
		indent := strings.Repeat("  ", depth)
		desc := n.desc()
		if n.Note != "" {
			desc += "  ; " + n.Note
		}
		if _, err := fmt.Fprintf(bw, "%s %s%s\n", flag, indent, desc); err != nil {
			return err
		}
		for _, ch := range n.Children {
			if err := rec(ch, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(c.Root, 0); err != nil {
		return err
	}
	return bw.Flush()
}

// desc renders n's entry: the line without its flag, indentation and
// note.
func (n *Node) desc() string {
	switch n.Kind {
	case KindModule:
		return fmt.Sprintf("MODULE%02d: %s", n.ID, n.Name)
	case KindFunc:
		return fmt.Sprintf("FUNC%02d: %s()", n.ID, n.Name)
	case KindBlock:
		return fmt.Sprintf("BBLK%02d", n.ID)
	case KindInsn:
		return fmt.Sprintf("INSN%02d: %#x %q", n.ID, n.Addr, n.Name)
	}
	return ""
}

// String renders the configuration as a string.
func (c *Config) String() string {
	var sb strings.Builder
	_ = c.Write(&sb)
	return sb.String()
}

// Read parses the exchange format, reconstructing the tree. The template
// configuration (from FromModule) is not required: structure comes
// entirely from the file.
func Read(r io.Reader) (*Config, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // lines up to 1 MiB; the buffer grows as needed
	c := &Config{byAddr: make(map[uint64]*Node)}
	// Parent stack by kind nesting: module > func > block > insn.
	var curFunc, curBlock *Node
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if len(line) < 2 {
			return nil, fmt.Errorf("config: line %d: too short", lineno)
		}
		flag, err := ParsePrecision(strings.TrimSpace(line[:1]))
		if err != nil {
			return nil, fmt.Errorf("config: line %d: %v", lineno, err)
		}
		body := strings.TrimSpace(line[1:])
		note := ""
		if i := strings.LastIndex(body, " ; "); i >= 0 {
			note = strings.TrimSpace(body[i+3:])
			body = strings.TrimSpace(body[:i])
		}
		n := &Node{Flag: flag, Note: note}
		switch {
		case strings.HasPrefix(body, "MODULE"):
			if c.Root != nil {
				return nil, fmt.Errorf("config: line %d: multiple modules", lineno)
			}
			n.Kind = KindModule
			rest, err := parseHeader(body, "MODULE", &n.ID)
			if err != nil {
				return nil, fmt.Errorf("config: line %d: %v", lineno, err)
			}
			n.Name = rest
			c.Root = n
		case strings.HasPrefix(body, "FUNC"):
			n.Kind = KindFunc
			rest, err := parseHeader(body, "FUNC", &n.ID)
			if err != nil {
				return nil, fmt.Errorf("config: line %d: %v", lineno, err)
			}
			n.Name = strings.TrimSuffix(rest, "()")
			if c.Root == nil {
				c.Root = &Node{Kind: KindModule, ID: 1}
			}
			c.Root.Children = append(c.Root.Children, n)
			curFunc, curBlock = n, nil
		case strings.HasPrefix(body, "BBLK"):
			n.Kind = KindBlock
			if _, err := parseHeader(body, "BBLK", &n.ID); err != nil {
				return nil, fmt.Errorf("config: line %d: %v", lineno, err)
			}
			if curFunc == nil {
				return nil, fmt.Errorf("config: line %d: block outside function", lineno)
			}
			curFunc.Children = append(curFunc.Children, n)
			curBlock = n
		case strings.HasPrefix(body, "INSN"):
			n.Kind = KindInsn
			rest, err := parseHeader(body, "INSN", &n.ID)
			if err != nil {
				return nil, fmt.Errorf("config: line %d: %v", lineno, err)
			}
			fields := strings.SplitN(rest, " ", 2)
			addr, err := strconv.ParseUint(fields[0], 0, 64)
			if err != nil {
				return nil, fmt.Errorf("config: line %d: bad address %q", lineno, fields[0])
			}
			n.Addr = addr
			if len(fields) == 2 {
				if uq, err := strconv.Unquote(strings.TrimSpace(fields[1])); err == nil {
					n.Name = uq
				} else {
					n.Name = strings.TrimSpace(fields[1])
				}
			}
			if curBlock == nil {
				return nil, fmt.Errorf("config: line %d: instruction outside block", lineno)
			}
			curBlock.Children = append(curBlock.Children, n)
			c.byAddr[addr] = n
		default:
			return nil, fmt.Errorf("config: line %d: unrecognized entry %q", lineno, body)
		}
		if strings.Contains(n.desc(), " ; ") || strings.HasPrefix(note, "; ") {
			// Write renders names and notes as they are, and Read splits
			// the note off at the last " ; ": the line would read back
			// as another entry.
			return nil, fmt.Errorf("config: line %d: name %q or note %q holds the note separator", lineno, n.Name, note)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if c.Root == nil {
		return nil, fmt.Errorf("config: empty configuration")
	}
	return c, nil
}

// parseHeader parses "KIND01: rest" or "KIND01", storing the sequence
// number and returning the rest.
func parseHeader(body, kind string, id *int) (string, error) {
	s := strings.TrimPrefix(body, kind)
	numEnd := 0
	for numEnd < len(s) && s[numEnd] >= '0' && s[numEnd] <= '9' {
		numEnd++
	}
	if numEnd == 0 {
		return "", fmt.Errorf("missing sequence number after %s", kind)
	}
	n, err := strconv.Atoi(s[:numEnd])
	if err != nil {
		return "", err
	}
	*id = n
	s = s[numEnd:]
	s = strings.TrimPrefix(s, ":")
	return strings.TrimSpace(s), nil
}
