package bv

import (
	"fmt"
	"strings"
)

// String renders the term in the paper's prefix notation, e.g.
// Mul(32,Add(32,...),Constant(0xFF)). Input-field variables (names beginning
// with '/') render as HachField(w,'/path'), matching §2's example target
// expression; other variables render as Input(w,'name').
func (t *Term) String() string {
	var b strings.Builder
	writeTerm(&b, t)
	return b.String()
}

func writeTerm(b *strings.Builder, t *Term) {
	switch t.Kind {
	case KConst:
		fmt.Fprintf(b, "Constant(0x%X)", t.Val)
	case KVar:
		if strings.HasPrefix(t.Name, "/") {
			fmt.Fprintf(b, "HachField(%d,'%s')", t.W, t.Name)
		} else {
			fmt.Fprintf(b, "Input(%d,'%s')", t.W, t.Name)
		}
	case KExtract:
		if t.Lo == 0 {
			// Low-bit truncation is the paper's "Shrink".
			fmt.Fprintf(b, "Shrink(%d,", t.W)
			writeTerm(b, t.X)
			b.WriteByte(')')
			return
		}
		fmt.Fprintf(b, "Extract(%d,%d,", t.Hi, t.Lo)
		writeTerm(b, t.X)
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "%s(%d,", opName(t.Kind), t.W)
		writeTerm(b, t.X)
		if t.Y != nil {
			b.WriteByte(',')
			writeTerm(b, t.Y)
		}
		b.WriteByte(')')
	}
}

// opName maps term kinds to the paper's operator vocabulary.
func opName(k Kind) string {
	switch k {
	case KNot:
		return "BvNot"
	case KNeg:
		return "Neg"
	case KAdd:
		return "Add"
	case KSub:
		return "Sub"
	case KMul:
		return "Mul"
	case KUDiv:
		return "UDiv"
	case KURem:
		return "URem"
	case KAnd:
		return "BvAnd"
	case KOr:
		return "BvOr"
	case KXor:
		return "BvXor"
	case KShl:
		return "Shl"
	case KLShr:
		return "UShr"
	case KAShr:
		return "SShr"
	case KZExt:
		return "ToSize"
	case KSExt:
		return "SignToSize"
	}
	return fmt.Sprintf("Op%d", k)
}

// String renders the formula in prefix notation.
func (b *Bool) String() string {
	var sb strings.Builder
	writeBool(&sb, b)
	return sb.String()
}

func writeBool(sb *strings.Builder, b *Bool) {
	switch b.Kind {
	case BConst:
		if b.BVal {
			sb.WriteString("True")
		} else {
			sb.WriteString("False")
		}
	case BEq, BUlt, BUle, BSlt, BSle:
		sb.WriteString(cmpName(b.Kind))
		sb.WriteByte('(')
		writeTerm(sb, b.X)
		sb.WriteByte(',')
		writeTerm(sb, b.Y)
		sb.WriteByte(')')
	case BNot:
		sb.WriteString("Not(")
		writeBool(sb, b.A)
		sb.WriteByte(')')
	case BAnd:
		sb.WriteString("And(")
		writeBool(sb, b.A)
		sb.WriteByte(',')
		writeBool(sb, b.B)
		sb.WriteByte(')')
	case BOr:
		sb.WriteString("Or(")
		writeBool(sb, b.A)
		sb.WriteByte(',')
		writeBool(sb, b.B)
		sb.WriteByte(')')
	}
}

func cmpName(k BoolKind) string {
	switch k {
	case BEq:
		return "Eq"
	case BUlt:
		return "Ult"
	case BUle:
		return "Ule"
	case BSlt:
		return "Slt"
	default:
		return "Sle"
	}
}
