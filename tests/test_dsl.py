"""Scene language: lexing, parsing, formatting, evaluation."""

import hashlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from harmonica import dsl
from harmonica.core import EXACT, float_backend
from harmonica.dsl import (
    AssertProduct,
    AssertPseudo,
    Call,
    Decl,
    EvaluationError,
    GonDecl,
    Redeclaration,
    SceneAst,
    SceneError,
    SceneSyntaxError,
    TypeMismatch,
    UnknownIdentifier,
    evaluate,
    format_scene,
    parse,
)

SCENE_DIR = Path(__file__).resolve().parent.parent / "scenes"

HARMONIC_SCENE = """\
point A = (0, 0)
point B = (2, 0)
point M = (1, 0)
point Y = conjugate(A, B; M)
assert harmonic(A, B; M, Y)
"""

# Two harmonic pencils sharing their first line (the join of the two
# vertices).  Both mixed triples of cross meets must be collinear.
TWO_PENCIL_SCENE = """\
point V1 = (0, 0)
point V2 = (4, 0)
point P = (1, 2)
point Q = (3, 1)
point R = (2, 3)
point S = (1, -1)
line s = join(V1, V2)
line a2 = join(V1, P)
line g1 = join(V1, Q)
line h1 = fourth_harmonic(V1; s, a2; g1)
line b2 = join(V2, R)
line g2 = join(V2, S)
line h2 = fourth_harmonic(V2; s, b2; g2)
point base = meet(a2, b2)
point X1 = meet(g1, g2)
point Y1 = meet(h1, h2)
point X2 = meet(g1, h2)
point Y2 = meet(h1, g2)
assert collinear(base, X1, Y1)
assert collinear(base, X2, Y2)
"""


# Parse errors pinned so that any change to a message, position or
# ``expected`` tuple fails: one malformed call per call and predicate
# keyword (a missing argument, or one of the wrong kind), after
# PIN_PREAMBLE.  Each row is the offending line, the error class, its
# message, line, column and ``expected`` (None for the classes that
# carry no ``expected``).
PIN_PREAMBLE = (
    "point A = (0, 0)\npoint B = (1, 0)\npoint C = (0, 1)\npoint D = (1, 1)\n"
    "line l = join(A, B)\nline m = join(B, C)\nline n = join(C, A)\n"
    "gon G = [A, B, C]\n"
)
PINNED_CALL_ERRORS = [
    ('point X = meet(l)', 'SceneSyntaxError', "line 9, column 17: expected ',', found ')'", 9, 17, (',',)),
    ('point X = meet(l, A)', 'TypeMismatch', "line 9, column 19: 'A' is a point, expected a line", 9, 19, None),
    ('point X = conjugate(A, B)', 'SceneSyntaxError', "line 9, column 25: expected ';', found ')'", 9, 25, (';',)),
    ('point X = conjugate(A, B; l)', 'TypeMismatch', "line 9, column 27: 'l' is a line, expected a point", 9, 27, None),
    ('line x = join(A)', 'SceneSyntaxError', "line 9, column 16: expected ',', found ')'", 9, 16, (',',)),
    ('line x = join(A, l)', 'TypeMismatch', "line 9, column 18: 'l' is a line, expected a point", 9, 18, None),
    ('line x = fourth_harmonic(A; l, m)', 'SceneSyntaxError', "line 9, column 33: expected ';', found ')'", 9, 33, (';',)),
    ('line x = fourth_harmonic(A; l, B; n)', 'TypeMismatch', "line 9, column 32: 'B' is a point, expected a line", 9, 32, None),
    ('line x = complete_fourth_line(A, B, C; l, m, n)', 'SceneSyntaxError', "line 9, column 38: expected ',', found ';'", 9, 38, (',',)),
    ('line x = complete_fourth_line(A, B, C, D; l, m, A)', 'TypeMismatch', "line 9, column 49: 'A' is a point, expected a line", 9, 49, None),
    ('assert collinear(A, B)', 'TypeMismatch', 'line 9, column 22: collinear needs at least 3 arguments', 9, 22, None),
    ('assert collinear(A, B, l)', 'TypeMismatch', "line 9, column 24: 'l' is a line, expected a point", 9, 24, None),
    ('assert concurrent(l, m)', 'TypeMismatch', 'line 9, column 23: concurrent needs at least 3 arguments', 9, 23, None),
    ('assert concurrent(l, m, A)', 'TypeMismatch', "line 9, column 25: 'A' is a point, expected a line", 9, 25, None),
    ('assert harmonic(A, B; C)', 'SceneSyntaxError', "line 9, column 24: expected ',', found ')'", 9, 24, (',',)),
    ('assert harmonic(A, B; C, l)', 'TypeMismatch', "line 9, column 26: 'l' is a line, expected a point", 9, 26, None),
    ('assert harmonic(G, A; B, C)', 'TypeMismatch', "line 9, column 17: 'G' is not a point or line", 9, 17, None),
    ('assert cr_equal(A, B, C, D; A, B, C)', 'SceneSyntaxError', "line 9, column 36: expected ',', found ')'", 9, 36, (',',)),
    ('assert cr_equal(A, B, C, D; A, B, C, l)', 'TypeMismatch', "line 9, column 38: 'l' is a line, expected a point", 9, 38, None),
    ('assert pseudo_concurrent(G, l, m)', 'TypeMismatch', "line 9, column 33: gon 'G' has 3 vertices, got 2 lines", 9, 33, None),
    ('assert pseudo_concurrent(G, l, m, A)', 'TypeMismatch', "line 9, column 35: 'A' is a point, expected a line", 9, 35, None),
    ('assert pseudo_concurrent(A, l, m, n)', 'TypeMismatch', "line 9, column 26: 'A' is a point, expected a gon", 9, 26, None),
    ('assert pseudo_collinear(G, A, B)', 'TypeMismatch', "line 9, column 32: gon 'G' has 3 vertices, got 2 points", 9, 32, None),
    ('assert pseudo_collinear(G, A, B, l)', 'TypeMismatch', "line 9, column 34: 'l' is a line, expected a point", 9, 34, None),
    ('assert pseudo_concurrent(G, l, m, n) order = seed(x)', 'SceneSyntaxError', 'line 9, column 51: expected an integer', 9, 51, ('number',)),
    ('assert ceva_product(G, l, m) = 1', 'TypeMismatch', "line 9, column 28: gon 'G' has 3 vertices, got 2 lines", 9, 28, None),
    ('assert ceva_product(G, l, m, A) = 1', 'TypeMismatch', "line 9, column 30: 'A' is a point, expected a line", 9, 30, None),
    ('assert ceva_product(G, l, m, n)', 'SceneSyntaxError', "line 10, column 1: expected '=', found 'end of input'", 10, 1, ('=',)),
    ('assert menelaos_product(G, A, B) = 1', 'TypeMismatch', "line 9, column 32: gon 'G' has 3 vertices, got 2 points", 9, 32, None),
    ('assert menelaos_product(G, A, B, l) = 1', 'TypeMismatch', "line 9, column 34: 'l' is a line, expected a point", 9, 34, None),
    ('point X = (1)', 'SceneSyntaxError', "line 9, column 13: expected ',' or ':'", 9, 13, (',', ':')),
    ('line x = (1, 2)', 'SceneSyntaxError', "line 9, column 12: expected ':'", 9, 12, (':',)),
    ('point X = foo(A)', 'SceneSyntaxError', "line 9, column 11: expected a coordinate literal, 'meet' or 'conjugate'", 9, 11, ('(', 'meet', 'conjugate')),
    ('line x = meet(l, m)', 'SceneSyntaxError', "line 9, column 10: expected a coordinate literal, 'join', 'fourth_harmonic' or 'complete_fourth_line'", 9, 10, ('(', 'join', 'fourth_harmonic', 'complete_fourth_line')),
    ('point X = join(A, B)', 'SceneSyntaxError', "line 9, column 11: expected a coordinate literal, 'meet' or 'conjugate'", 9, 11, ('(', 'meet', 'conjugate')),
    ('point meet = (1, 2)', 'SceneSyntaxError', "line 9, column 7: 'meet' is a reserved word", 9, 7, ()),
    ('line x = join(A, B', 'SceneSyntaxError', "line 10, column 1: expected ')', found 'end of input'", 10, 1, (')',)),
]

PINNED_RESERVED_WORDS = (
    "point line gon assert join meet conjugate fourth_harmonic"
    " complete_fourth_line collinear concurrent harmonic cr_equal"
    " pseudo_concurrent pseudo_collinear ceva_product menelaos_product"
    " order first exhaustive seed"
).split()

# sha256 of format_scene(parse(text)) for each shipped scene.
PINNED_SCENE_SHA256 = {
    'figure1.hgeo': '2eef3d839c3376f910cf43941b0f04d42e52bba66d527c0c3961982099d7c80c',
    'figure11.hgeo': '991e7dce81908195b6b12670b6cdd5f9e1c774c7c62af5169fdff3e1c14642b7',
    'figure13.hgeo': '5c39f9c10f204b222ed0e2a2192f489beaeeb10b1d05b0d1622b0fd23b79cbce',
    'figure2.hgeo': '000541a1ba5b1649a733fce044fbee19174eddf0786a666941cad7e3e490a28f',
    'figure5.hgeo': '4d5da80acac627a8af090bbeb9fe108156aad44a726545eba00011f50918c243',
    'figure6.hgeo': '4ad5052d4cba296d1231e2000a2db60700004186256bedbd8f253c2ac44ebae3',
    'figure7.hgeo': '8374aa20773dde83c99b8048675d2d2b32298c73cb41b67f8fd2e26ffad7b2d9',
    'figure9.hgeo': '3d9bb4f5df5944f4d1f47db9d8858c9326e794b4a6ad437d422d4938e1373197',
}

# sha256 of each shipped scene's token stream, one "kind\tvalue\tline\tcol"
# line per token (end of input included), recorded on an earlier commit.
PINNED_TOKEN_SHA256 = {
    'figure1.hgeo': 'd83f346c29c996f68597be2cd2945344d07179b2a3cf7fa7420162d73901d0be',
    'figure11.hgeo': '43ff926bb1b879884bc24201a19441ea43ce006d8a68457fc8639fdd69e69732',
    'figure13.hgeo': '9c6c0f0dbfdcf3e233465951ad95664acfb3cc804fc7000ac0a8bf74266879af',
    'figure2.hgeo': 'cad563e3fc25aa68ed52c8b2a798e4e28a02acb7b5fa981cb27c59ec047830f9',
    'figure5.hgeo': '79011ce7cee2fdb8604a09fb314f1fa2d0052727e0a89197e7aafbc40d1eb60e',
    'figure6.hgeo': '2efc824a65525a7b89405bc4505daad709a521361c3b8f453cead76ef114e57f',
    'figure7.hgeo': '2fb32a49efff4dbd94061845f6178b2b0579b9acb48179abd94f8c6d8aca57b5',
    'figure9.hgeo': '416377cc2cc86fd4a2477af1e264accd79d7e20febbd6bfe6723b6bd1db2228a',
}

# The end-of-input token's (line, column): a comment does not advance
# the column, so input that ends in a comment ends where the comment
# starts.
PINNED_EOF_POSITIONS = [
    ("point A = # note", (1, 11)),
    ("point A = (0, 0) # c", (1, 18)),
    ("point A = (0, 0)\n# c", (2, 1)),
    ("# only", (1, 1)),
    ("", (1, 1)),
    ("  # x\n  ", (2, 3)),
    ("point A = (1,\t# c\n", (2, 1)),
    ("point A = (0, 0)\r\n  # c\r", (2, 3)),
    ("\tpoint A = (0, 0)\t", (1, 19)),
]

# sha256 over the parse outcome of every prefix text[:k], k = 0 ..
# len(text), of every shipped scene (7,212 prefixes): one
# "name\tk\toutcome" line each, the outcome being the repr of
# format_scene(parse(prefix)) or of the error's class, message and
# ``expected``.  It pins where partial input fails and what it expects.
PINNED_PREFIX_SHA256 = (
    "042e47fcde782a9f19a2a101d75cfd847e8fdbc5b0ae55f157141d6b05261bcb"
)

# sha256 over the parse outcome of every single-character deletion of
# every shipped scene (7,204 texts) and of EDIT_SUBSTITUTIONS seeded
# single-character substitutions per scene, each drawing its position
# and its character (from EDIT_CHARS) from random.Random(0): one
# "name\tedit\toutcome" line each, the outcome as for the prefixes.
# The prefixes reach errors only at end of input; these edits put a
# bad or missing token inside a statement.
PINNED_EDIT_SHA256 = (
    "8fefd91708f195d8d86e765328165e5fb847ca65647b1a1c98225dd3642198fd"
)
EDIT_SUBSTITUTIONS = 200
# How many of those prefixes and edits the statement reader reads; it
# refuses the others, and the token reader words their errors.
PREFIXES_READ = 2122
EDITS_READ = 2946
# the punctuation, the comment and sign characters, a name character,
# a digit, tab, LF and CR, and two characters that no token takes: a
# superscript two (str.isdigit) and a no-break space
EDIT_CHARS = "(),;:=/-#_0A\t\n\r\u00b2\u00a0"


def _token_kind(token):
    # a token's kind follows from its first character
    if not token:
        return "eof"
    if token[0] in "-0123456789":
        return "number"
    if token[0] in "()[],;:=/":
        return "punct"
    return "word"


def _token_stream(text):
    """(kind, value, line, column) of each token, end of input last."""
    tokens, where = dsl._lex(text)
    return [(_token_kind(t), t, *where(i)) for i, t in enumerate(tokens)]


def _token_read(text):
    """The token reader's AST of text, or its error."""
    try:
        return dsl._Parser(*dsl._lex(text)).scene()
    except SceneError as exc:
        return exc


def _readers_agree(text):
    """Whether the statement reader read text rather than refuse it.
    Where the token reader fails the statement reader must refuse; where
    it reads, the statement reader refuses or reads the same AST with
    the same positions and scalar types, which the reprs show."""
    read = dsl._read(text)
    if read is None:
        return False
    token = _token_read(text)
    assert not isinstance(token, SceneError), (text, token)
    assert read == token and repr(read) == repr(token), text
    return True


def _parse_outcome(text):
    """format_scene(parse(text)), or the error's class, message and
    ``expected``."""
    try:
        return format_scene(parse(text))
    except SceneError as exc:
        expected = getattr(exc, "expected", None)
        return f"{type(exc).__name__}\t{exc}\t{expected!r}"


class TestLexingAndSyntax:
    def test_join_with_one_argument_reports_the_closing_paren(self):
        text = "point A = (0, 0)\nline l = join(A)\n"
        with pytest.raises(SceneSyntaxError) as err:
            parse(text)
        assert err.value.line == 2
        assert err.value.col == 16  # the ')' where ',' was required
        assert "," in err.value.expected

    def test_missing_equals(self):
        with pytest.raises(SceneSyntaxError) as err:
            parse("point A (0, 0)")
        assert err.value.expected == ("=",)
        assert err.value.line == 1

    def test_float_literal_is_rejected_at_the_dot(self):
        with pytest.raises(SceneSyntaxError) as err:
            parse("point A = (0.5, 1)")
        assert err.value.col == 13
        assert "'.'" in str(err.value)

    def test_zero_denominator(self):
        with pytest.raises(SceneSyntaxError) as err:
            parse("point A = (1/0, 2)")
        assert "denominator" in str(err.value)

    @pytest.mark.parametrize(
        "text, line, col",
        [
            (f"point A = ({'9' * 5000}, 0)", 1, 12),
            (f"point A = (1/{'9' * 5000}, 0)", 1, 14),
            (
                PIN_PREAMBLE + "assert pseudo_concurrent(G, l, m, n)"
                f" order = seed({'9' * 5000})",
                9,
                51,
            ),
        ],
        ids=["numerator", "denominator", "seed"],
    )
    def test_number_past_the_digit_limit_reports_its_site(self, text, line, col):
        with pytest.raises(SceneSyntaxError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert "number too long" in str(err.value)

    def test_rational_allows_spaces_around_slash(self):
        ast = parse("point A = (1 / 3, 2)")
        assert ast.statements[0].expr == (Fraction(1, 3), 2, 1)

    def test_reserved_word_cannot_name_an_object(self):
        with pytest.raises(SceneSyntaxError) as err:
            parse("point join = (1, 2)")
        assert "reserved" in str(err.value)

    def test_statement_must_start_with_a_keyword(self):
        with pytest.raises(SceneSyntaxError) as err:
            parse("circle c = (0, 0)")
        assert err.value.expected == ("point", "line", "gon", "assert")

    def test_unknown_predicate(self):
        with pytest.raises(SceneSyntaxError) as err:
            parse("point A = (0, 0)\nassert parallel(A)")
        assert "parallel" in str(err.value)
        assert "collinear" in err.value.expected

    def test_unexpected_character(self):
        with pytest.raises(SceneSyntaxError) as err:
            parse("point A = (0, 0) @")
        assert err.value.col == 18

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\u216b", "\u00bd"])
    def test_numbers_take_ascii_digits_only(self, digit):
        # superscript two and Arabic-Indic three are str.isdigit(), roman
        # twelve and one half str.isnumeric(); none is str.isalpha()
        with pytest.raises(SceneSyntaxError) as err:
            parse(f"point A = ({digit}, 1)")
        assert str(err.value) == f"line 1, column 12: unexpected character {digit!r}"
        with pytest.raises(SceneSyntaxError) as err:
            parse(f"point A = (1{digit}, 1)")
        assert err.value.col == 13
        with pytest.raises(SceneSyntaxError) as err:
            parse(f"point {digit}A = (0, 1)")
        assert err.value.col == 7

    @pytest.mark.parametrize(
        "text, line, col",
        [
            ("point A = (0,\f0)", 1, 14),
            ("point A\u00a0= (0, 0)", 1, 8),
            ("point A = (- 1, 0)", 1, 12),
            ("point A = (0, 0)\r\npoint B = (0, 0) -", 2, 18),
        ],
        ids=["form-feed", "no-break-space", "lone-minus", "minus-at-end"],
    )
    def test_character_outside_every_token(self, text, line, col):
        ch = text.split("\n")[line - 1][col - 1]
        with pytest.raises(SceneSyntaxError) as err:
            parse(text)
        assert str(err.value) == (
            f"line {line}, column {col}: unexpected character {ch!r}"
        )

    @pytest.mark.parametrize("name", ["\u00c4", "x\u00b2", "_1", "\u00e9t\u00e9"])
    def test_names_start_with_a_letter_or_underscore(self, name):
        assert parse(f"point {name} = (0, 0)") == SceneAst(
            (Decl("point", name, (0, 0, 1)),)
        )

    def test_comments_and_whitespace_are_insignificant(self):
        ast = parse(
            "# leading comment\npoint A = (0,\n0)  # trailing\n\n\t line l="
            " ( 1 :2: 3 )"
        )
        assert ast.statements[0] == Decl("point", "A", (0, 0, 1))
        assert ast.statements[1] == Decl("line", "l", (1, 2, 3))

    def test_positions_are_one_based_and_inside_the_token(self):
        with pytest.raises(UnknownIdentifier) as err:
            parse("point A = (0, 0)\nline l = join(A, Bee)")
        assert (err.value.line, err.value.col) == (2, 18)


class TestStaticChecks:
    def test_use_before_declaration(self):
        with pytest.raises(UnknownIdentifier):
            parse("line l = join(A, B)")

    def test_redeclaration(self):
        with pytest.raises(Redeclaration) as err:
            parse("point A = (0, 0)\npoint A = (1, 1)")
        assert err.value.line == 2

    def test_redeclaration_across_kinds(self):
        with pytest.raises(Redeclaration):
            parse("point A = (0, 0)\nline A = (1 : 2 : 3)")

    def test_point_where_line_expected(self):
        with pytest.raises(TypeMismatch) as err:
            parse("point A = (0, 0)\npoint B = (1, 1)\npoint X = meet(A, B)")
        assert "is a point, expected a line" in str(err.value)

    def test_gon_needs_three_vertices(self):
        with pytest.raises(TypeMismatch):
            parse("point A = (0, 0)\npoint B = (1, 1)\ngon G = [A, B]")

    def test_pseudo_item_count_must_match_gon_arity(self):
        text = (
            "point A = (0, 0)\npoint B = (3, 0)\npoint C = (0, 3)\n"
            "gon G = [A, B, C]\n"
            "line l = (1 : 1 : -1)\nline m = (1 : -1 : 0)\n"
            "assert pseudo_concurrent(G, l, m)"
        )
        with pytest.raises(TypeMismatch) as err:
            parse(text)
        assert "3 vertices" in str(err.value)

    def test_harmonic_arguments_must_share_a_kind(self):
        text = (
            "point A = (0, 0)\npoint B = (2, 0)\npoint M = (1, 0)\n"
            "line l = (0 : 1 : 0)\nassert harmonic(A, B; M, l)"
        )
        with pytest.raises(TypeMismatch):
            parse(text)

    def test_gon_where_point_expected(self):
        text = (
            "point A = (0, 0)\npoint B = (1, 0)\npoint C = (0, 1)\n"
            "gon G = [A, B, C]\nline l = join(G, A)"
        )
        with pytest.raises(TypeMismatch):
            parse(text)

    def test_collinear_needs_three_points(self):
        with pytest.raises(TypeMismatch):
            parse("point A = (0, 0)\npoint B = (1, 1)\nassert collinear(A, B)")

    def test_order_clause_forms(self):
        base = (
            "point A = (0, 0)\npoint B = (3, 0)\npoint C = (0, 3)\n"
            "gon G = [A, B, C]\n"
            "line u = join(A, B)\nline v = join(B, C)\nline w = join(C, A)\n"
        )
        for clause, expected in (
            ("", None),
            (" order = first", "first"),
            (" order = exhaustive", "exhaustive"),
            (" order = seed(7)", ("seed", 7)),
        ):
            ast = parse(base + f"assert pseudo_concurrent(G, v, w, u){clause}")
            assert ast.statements[-1].order == expected


class TestFormatting:
    def test_affine_form_is_used_when_w_is_one(self):
        ast = SceneAst(
            (
                Decl("point", "A", (Fraction(1, 2), -3, 1)),
                Decl("point", "B", (1, 0, 0)),
            )
        )
        assert format_scene(ast) == "point A = (1/2, -3)\npoint B = (1 : 0 : 0)\n"

    def test_format_drops_comments(self):
        text = "# header\npoint A = (0, 0)  # inline\n"
        out = format_scene(parse(text))
        assert "#" not in out
        assert out == "point A = (0, 0)\n"

    def test_format_is_idempotent_on_a_full_scene(self):
        out = format_scene(parse(TWO_PENCIL_SCENE))
        assert format_scene(parse(out)) == out

    def test_empty_scene(self):
        assert format_scene(SceneAst(())) == ""
        assert parse("") == SceneAst(())
        assert parse("# only a comment\n") == SceneAst(())


class TestPinnedBehaviour:
    @pytest.mark.parametrize(
        "statement, cls, message, line, col, expected", PINNED_CALL_ERRORS
    )
    def test_malformed_call(self, statement, cls, message, line, col, expected):
        with pytest.raises(SceneError) as err:
            parse(PIN_PREAMBLE + statement + "\n")
        assert type(err.value).__name__ == cls
        assert str(err.value) == message
        assert (err.value.line, err.value.col) == (line, col)
        assert getattr(err.value, "expected", None) == expected

    @pytest.mark.parametrize("name, digest", sorted(PINNED_SCENE_SHA256.items()))
    def test_shipped_scene_formats_to_pinned_bytes(self, name, digest):
        text = (SCENE_DIR / name).read_text()
        out = format_scene(parse(text)).encode()
        assert hashlib.sha256(out).hexdigest() == digest

    def test_every_shipped_scene_is_pinned(self):
        names = sorted(p.name for p in SCENE_DIR.glob("*.hgeo"))
        assert names == sorted(PINNED_SCENE_SHA256)
        assert names == sorted(PINNED_TOKEN_SHA256)

    @pytest.mark.parametrize(
        "name, digest, newline",
        [
            pytest.param(name, digest, newline, id=f"{name}-{digest}{suffix}")
            for name, digest in sorted(PINNED_TOKEN_SHA256.items())
            for newline, suffix in (("\n", ""), ("\r\n", "-crlf"))
        ],
    )
    def test_shipped_scene_lexes_to_pinned_tokens(self, name, digest, newline):
        # a CR before each LF is whitespace at the end of its line, so
        # it moves no token
        text = (SCENE_DIR / name).read_text().replace("\n", newline)
        stream = "".join(
            f"{kind}\t{value}\t{line}\t{col}\n"
            for kind, value, line, col in _token_stream(text)
        )
        assert hashlib.sha256(stream.encode()).hexdigest() == digest
        assert _readers_agree(text)

    @pytest.mark.parametrize("text, pos", PINNED_EOF_POSITIONS)
    def test_end_of_input_position(self, text, pos):
        kind, value, line, col = _token_stream(text)[-1]
        assert (kind, value, (line, col)) == ("eof", "", pos)

    def test_every_prefix_of_every_shipped_scene(self):
        digest = hashlib.sha256()
        count = read = 0
        for path in sorted(SCENE_DIR.glob("*.hgeo")):
            text = path.read_text()
            for k in range(len(text) + 1):
                outcome = _parse_outcome(text[:k])
                digest.update(f"{path.name}\t{k}\t{outcome!r}\n".encode())
                count += 1
                read += _readers_agree(text[:k])
        assert count == 7212
        assert digest.hexdigest() == PINNED_PREFIX_SHA256
        assert read == PREFIXES_READ

    def test_every_single_character_edit_of_every_shipped_scene(self):
        rng = random.Random(0)
        digest = hashlib.sha256()
        count = read = 0
        for path in sorted(SCENE_DIR.glob("*.hgeo")):
            text = path.read_text()
            edits = [
                (f"del {k}", text[:k] + text[k + 1 :]) for k in range(len(text))
            ]
            for _ in range(EDIT_SUBSTITUTIONS):
                k = rng.randrange(len(text))
                ch = rng.choice(EDIT_CHARS)
                edits.append((f"sub {k} {ch!r}", text[:k] + ch + text[k + 1 :]))
            for edit, edited in edits:
                outcome = _parse_outcome(edited)
                digest.update(f"{path.name}\t{edit}\t{outcome!r}\n".encode())
                count += 1
                read += _readers_agree(edited)
        assert count == 7204 + 8 * EDIT_SUBSTITUTIONS
        assert digest.hexdigest() == PINNED_EDIT_SHA256
        assert read == EDITS_READ

    def test_shipped_and_generated_scenes_need_no_token_reader(self, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "scenegen", SCENE_DIR.parent / "bench" / "scenegen.py"
        )
        scenegen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scenegen)
        texts = [path.read_text() for path in sorted(SCENE_DIR.glob("*.hgeo"))]
        # three seeds of the scenes benchmark's pool of generated scenes
        texts += [
            scenegen.generate_scene(seed, index)[0]
            for seed in range(3)
            for index in range(48)
        ]
        expected = [_token_read(text) for text in texts]

        def refuse(self):
            raise AssertionError("the token reader ran")

        monkeypatch.setattr(dsl._Parser, "scene", refuse)
        for text, ast in zip(texts, expected):
            got = parse(text)
            assert got == ast and repr(got) == repr(ast)

    def test_input_ending_in_a_comment_fails_where_the_comment_starts(self):
        with pytest.raises(SceneSyntaxError) as err:
            parse("point A = # note")
        assert str(err.value) == (
            "line 1, column 11: expected a coordinate literal, 'meet' or"
            " 'conjugate'"
        )
        assert err.value.expected == ("(", "meet", "conjugate")


def _rational(rng):
    num = rng.randint(-9, 9)
    if rng.random() < 0.5:
        return Fraction(num, rng.randint(1, 9))
    return num


def _nonzero_triple(rng):
    while True:
        t = (_rational(rng), _rational(rng), _rational(rng))
        if any(v != 0 for v in t):
            return t


class _AstBuilder:
    """Grows a random well-formed scene statement by statement."""

    def __init__(self, rng):
        self.rng = rng
        self.points = []
        self.lines = []
        self.gons = []  # (name, arity)
        self.statements = []
        self.counter = 0

    def fresh(self, prefix):
        self.counter += 1
        return f"{prefix}{self.counter}"

    def add_point_literal(self):
        name = self.fresh("P")
        triple = _nonzero_triple(self.rng)
        if self.rng.random() < 0.5:
            triple = (triple[0], triple[1], 1)
        self.statements.append(Decl("point", name, triple))
        self.points.append(name)

    def add_line_literal(self):
        name = self.fresh("l")
        self.statements.append(Decl("line", name, _nonzero_triple(self.rng)))
        self.lines.append(name)

    def pick_points(self, k):
        return tuple(self.rng.choices(self.points, k=k))

    def pick_lines(self, k):
        return tuple(self.rng.choices(self.lines, k=k))

    def add_statement(self):
        rng = self.rng
        choices = [self.add_point_literal, self.add_line_literal]
        if len(self.points) >= 2:
            choices += [self.add_join, self.add_conjugate]
        if len(self.lines) >= 2:
            choices.append(self.add_meet)
        if self.points and len(self.lines) >= 3:
            choices.append(self.add_fourth_harmonic)
        if len(self.points) >= 4 and len(self.lines) >= 3:
            choices.append(self.add_complete_fourth_line)
        if len(self.points) >= 3:
            choices.append(self.add_gon)
            choices.append(self.add_incidence_assert)
        if len(self.points) >= 4:
            choices.append(self.add_harmonic_assert)
            choices.append(self.add_cr_equal)
        if self.gons:
            choices.append(self.add_pseudo)
            choices.append(self.add_product)
        rng.choice(choices)()

    def add_join(self):
        name = self.fresh("l")
        a, b = self.pick_points(2)
        self.statements.append(Decl("line", name, Call("join", (a, b))))
        self.lines.append(name)

    def add_meet(self):
        name = self.fresh("P")
        a, b = self.pick_lines(2)
        self.statements.append(Decl("point", name, Call("meet", (a, b))))
        self.points.append(name)

    def add_conjugate(self):
        name = self.fresh("P")
        a, b, x = self.pick_points(3)
        self.statements.append(Decl("point", name, Call("conjugate", (a, b, x))))
        self.points.append(name)

    def add_fourth_harmonic(self):
        name = self.fresh("l")
        (v,) = self.pick_points(1)
        a, b, g = self.pick_lines(3)
        self.statements.append(
            Decl("line", name, Call("fourth_harmonic", (v, a, b, g)))
        )
        self.lines.append(name)

    def add_complete_fourth_line(self):
        name = self.fresh("l")
        self.statements.append(
            Decl(
                "line",
                name,
                Call(
                    "complete_fourth_line",
                    (self.pick_points(4), self.pick_lines(3)),
                ),
            )
        )
        self.lines.append(name)

    def add_gon(self):
        name = self.fresh("G")
        arity = self.rng.randint(3, min(6, len(self.points)))
        self.statements.append(GonDecl(name, self.pick_points(arity)))
        self.gons.append((name, arity))

    def add_incidence_assert(self):
        k = self.rng.randint(3, min(5, len(self.points)))
        if self.rng.random() < 0.5 or len(self.lines) < 3:
            self.statements.append(Call("collinear", (self.pick_points(k),)))
        else:
            k = self.rng.randint(3, min(5, len(self.lines)))
            self.statements.append(Call("concurrent", (self.pick_lines(k),)))

    def add_harmonic_assert(self):
        if self.rng.random() < 0.5 and len(self.lines) >= 4:
            a, b, x, y = self.pick_lines(4)
            self.statements.append(Call("harmonic", (a, b, x, y)))
        else:
            a, b, x, y = self.pick_points(4)
            self.statements.append(Call("harmonic", (a, b, x, y)))

    def add_cr_equal(self):
        self.statements.append(
            Call("cr_equal", (self.pick_points(4), self.pick_points(4)))
        )

    def _order(self):
        roll = self.rng.random()
        if roll < 0.4:
            return None
        if roll < 0.6:
            return "first"
        if roll < 0.8:
            return "exhaustive"
        return ("seed", self.rng.randint(0, 999))

    def add_pseudo(self):
        gon, arity = self.rng.choice(self.gons)
        if self.rng.random() < 0.5 and len(self.lines) >= arity:
            self.statements.append(
                AssertPseudo(
                    "ceva", gon, self.pick_lines(arity), order=self._order()
                )
            )
        else:
            self.statements.append(
                AssertPseudo(
                    "menelaos", gon, self.pick_points(arity), order=self._order()
                )
            )

    def add_product(self):
        gon, arity = self.rng.choice(self.gons)
        target = _rational(self.rng)
        if self.rng.random() < 0.5 and len(self.lines) >= arity:
            self.statements.append(
                AssertProduct("ceva", gon, self.pick_lines(arity), target=target)
            )
        else:
            self.statements.append(
                AssertProduct(
                    "menelaos", gon, self.pick_points(arity), target=target
                )
            )

    def build(self):
        self.add_point_literal()
        self.add_point_literal()
        for _ in range(self.rng.randint(3, 15)):
            self.add_statement()
        return SceneAst(tuple(self.statements))


class TestRoundTrip:
    def test_thousand_random_asts_round_trip_exactly(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            ast = _AstBuilder(rng).build()
            text = format_scene(ast)
            again = parse(text)
            assert again == ast
            assert format_scene(again) == text
            # canonical text is read without the token reader
            assert _readers_agree(text)

    def test_round_trip_preserves_homogeneous_literals(self):
        ast = parse("point A = (1 : 2 : 3)\nline l = (0 : 1 : -4/5)\n")
        assert format_scene(ast) == "point A = (1 : 2 : 3)\nline l = (0 : 1 : -4/5)\n"

    def test_affine_and_homogeneous_spellings_agree(self):
        a = parse("point A = (3, -2)")
        b = parse("point A = (3 : -2 : 1)")
        assert a == b


class TestEvaluation:
    def test_midpoint_conjugate_scene_passes(self):
        report = evaluate(parse(HARMONIC_SCENE))
        assert report.all_passed
        (res,) = report.assertions
        assert res.kind == "harmonic"
        assert res.line == 5
        assert "cross-ratio -1" in res.detail

    def test_two_pencil_scene_passes_both_collinearities(self):
        report = evaluate(parse(TWO_PENCIL_SCENE))
        assert report.all_passed
        assert len(report.assertions) == 2
        assert [r.kind for r in report.assertions] == ["collinear", "collinear"]

    def test_false_collinearity_reports_witness_determinant(self):
        text = (
            "point A = (0, 0)\npoint B = (1, 0)\npoint C = (0, 1)\n"
            "assert collinear(A, B, C)"
        )
        report = evaluate(parse(text))
        assert not report.all_passed
        (res,) = report.assertions
        assert not res.passed
        assert "witness determinant" in res.detail
        assert "1" in res.detail  # det of the unit triangle

    def test_bindings_expose_evaluated_objects(self):
        report = evaluate(parse(HARMONIC_SCENE))
        y = report.bindings["Y"]
        assert y.w == 0  # conjugate of the midpoint is at infinity

    def test_construction_failure_carries_declaration_site(self):
        text = "point A = (1, 1)\npoint B = (1, 1)\nline l = join(A, B)"
        with pytest.raises(EvaluationError) as err:
            evaluate(parse(text))
        assert err.value.line == 3

    def test_assertion_plumbing_failure_carries_site(self):
        # cross-ratio of four points needs the last two on the carrier
        text = (
            "point A = (0, 0)\npoint B = (1, 0)\npoint C = (2, 0)\n"
            "point D = (1, 5)\nassert harmonic(A, B; C, D)"
        )
        with pytest.raises(EvaluationError) as err:
            evaluate(parse(text))
        assert err.value.line == 5

    def test_harmonic_on_lines_uses_the_pencil_vertex(self):
        text = (
            "point V = (0, 0)\npoint P = (1, 0)\npoint Q = (0, 1)\n"
            "point R = (1, 1)\n"
            "line a = join(V, P)\nline b = join(V, Q)\nline g = join(V, R)\n"
            "line h = fourth_harmonic(V; a, b; g)\n"
            "assert harmonic(a, b; g, h)"
        )
        report = evaluate(parse(text))
        assert report.all_passed

    def test_cr_equal_under_projection(self):
        # two parallel carriers and a perspectivity center
        text = (
            "point A = (0, 0)\npoint B = (1, 0)\npoint C = (2, 0)\n"
            "point D = (4, 0)\n"
            "point O = (0, 3)\n"
            "line t = (0 : 1 : -1)\n"
            "line oa = join(O, A)\nline ob = join(O, B)\n"
            "line oc = join(O, C)\nline od = join(O, D)\n"
            "point A2 = meet(t, oa)\npoint B2 = meet(t, ob)\n"
            "point C2 = meet(t, oc)\npoint D2 = meet(t, od)\n"
            "assert cr_equal(A, B, C, D; A2, B2, C2, D2)"
        )
        report = evaluate(parse(text))
        assert report.all_passed

    def test_ceva_product_of_medians_is_one(self):
        text = (
            "point A = (0, 0)\npoint B = (4, 0)\npoint C = (0, 4)\n"
            "point MA = (2, 2)\npoint MB = (0, 2)\npoint MC = (2, 0)\n"
            "line ga = join(A, MA)\nline gb = join(B, MB)\nline gc = join(C, MC)\n"
            "gon T = [A, B, C]\n"
            "assert ceva_product(T, ga, gb, gc) = 1\n"
            "assert pseudo_concurrent(T, ga, gb, gc) order = exhaustive\n"
            "assert concurrent(ga, gb, gc)"
        )
        report = evaluate(parse(text))
        assert report.all_passed

    def test_menelaos_product_target_with_sign(self):
        # transversal y = x - 1 cutting the 4-0-0/0-4 triangle's sides
        text = (
            "point A = (0, 0)\npoint B = (4, 0)\npoint C = (0, 4)\n"
            "gon T = [A, B, C]\n"
            "line t = (1 : -1 : -1)\n"
            "line ab = join(A, B)\nline bc = join(B, C)\nline ca = join(C, A)\n"
            "point X = meet(t, ab)\npoint Y = meet(t, bc)\npoint Z = meet(t, ca)\n"
            "assert menelaos_product(T, X, Y, Z) = -1\n"
            "assert pseudo_collinear(T, X, Y, Z)"
        )
        report = evaluate(parse(text))
        assert report.all_passed

    def test_failed_product_reports_value(self):
        text = (
            "point A = (0, 0)\npoint B = (4, 0)\npoint C = (0, 4)\n"
            "point MA = (2, 2)\npoint MB = (0, 2)\npoint MC = (1, 0)\n"
            "line ga = join(A, MA)\nline gb = join(B, MB)\nline gc = join(C, MC)\n"
            "gon T = [A, B, C]\n"
            "assert ceva_product(T, ga, gb, gc) = 1"
        )
        report = evaluate(parse(text))
        (res,) = report.assertions
        assert not res.passed
        assert "product" in res.detail

    def test_float_backend_converts_literals(self):
        text = "point A = (1/3, 0)\npoint B = (2/3, 0)\nline l = join(A, B)"
        report = evaluate(parse(text), float_backend())
        a = report.bindings["A"]
        assert isinstance(a.x, float) or isinstance(a.y, float) or isinstance(a.w, float)

    def test_float_backend_tolerates_tiny_residues(self):
        # C is off the line by 1e-8 in y: exactly false, true within eps
        text = (
            "point A = (0, 0)\npoint B = (1000000, 1)\n"
            "point C = (2000000, 200000001/100000000)\n"
            "assert collinear(A, B, C)"
        )
        assert not evaluate(parse(text), EXACT).all_passed
        assert evaluate(parse(text), float_backend(1e-6)).all_passed

    def test_report_json_shape(self):
        data = evaluate(parse(HARMONIC_SCENE)).to_json()
        assert data["schema"] == 1
        assert data["passed"] is True
        assert data["assertions"][0]["kind"] == "harmonic"
        assert data["assertions"][0]["index"] == 1

    def test_complete_fourth_line_in_a_scene(self):
        text = (
            "point A1 = (0, 0)\npoint A2 = (5, 0)\npoint A3 = (6, 4)\n"
            "point A4 = (1, 5)\n"
            "point P = (3, 2)\npoint Q = (2, 1)\npoint R = (4, 1)\n"
            "line g1 = join(A1, P)\nline g2 = join(A2, Q)\nline g3 = join(A3, R)\n"
            "line g4 = complete_fourth_line(A1, A2, A3, A4; g1, g2, g3)\n"
            "gon G = [A1, A2, A3, A4]\n"
            "assert pseudo_concurrent(G, g1, g2, g3, g4) order = exhaustive"
        )
        report = evaluate(parse(text))
        assert report.all_passed


class TestCallTable:
    def test_reserved_words_are_exactly_the_pinned_ones(self):
        assert dsl._KEYWORDS == frozenset(PINNED_RESERVED_WORDS)

    def test_every_call_keyword_is_in_the_readme_grammar(self):
        readme = (SCENE_DIR.parent / "README.md").read_text()
        section = readme.split("## Scene language", 1)[1]
        grammar = section.split("Grammar", 1)[1].split("```")[1]
        assert "scene     ::=" in grammar
        for keyword in dsl._CALLS:
            assert f'"{keyword}" "("' in grammar, keyword

    def test_formatter_writes_calls_as_the_parser_reads_them(self):
        text = (
            PIN_PREAMBLE
            + "point X = meet(l, m)\npoint Y = conjugate(A, B; X)\n"
            "line x = fourth_harmonic(A; l, n; m)\n"
            "line y = complete_fourth_line(A, B, C, D; l, m, n)\n"
            "assert cr_equal(A, B, C, D; D, C, B, A)\n"
        )
        assert format_scene(parse(text)) == text
