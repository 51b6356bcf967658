"""A hand-encoded corpus of the type classes in GHC 8.0's base and ghc-prim.

Section 8.1 of the paper reports that 34 of the 76 classes in ``base`` and
``ghc-prim`` can be levity-generalised (the full list lives in GHC ticket
#12708).  We cannot read GHC's source here, so this module reconstructs the
class inventory from the documented API of base-4.9 / ghc-prim-0.5 (the
GHC 8.0 library versions).  Each class records the information the
generalisability analysis needs:

* the kind of its class variable (only ``Type``-kinded classes can have
  their variable re-kinded to ``TYPE r``);
* for every method, whether the class variable appears **only** in "direct"
  positions (immediate argument or result of function arrows).  A method
  such as ``showList :: [a] -> ShowS`` places the variable under another
  type constructor (``[]``), whose argument must be lifted, which blocks
  generalisation;
* its superclasses (a class cannot be generalised unless its superclasses
  are).

The encoding is an approximation of the real signatures (documented in
DESIGN.md as a substitution): the aggregate — roughly half of the corpus is
generalisable — is the claim being reproduced, and per-class decisions for
the well-known classes (Eq, Ord, Num, Show, Monoid, Functor, Monad, …)
match the GHC ticket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class MethodEntry:
    """One method: its name and how it mentions the class variable."""

    name: str
    #: True when every occurrence of the class variable is a direct argument
    #: or result of a function arrow (never under another type constructor).
    var_only_in_direct_positions: bool = True
    #: True when the method has a default implementation in the class.  A
    #: non-direct method with a default does not block generalisation: the
    #: generalised class simply leaves that method at its (lifted-only)
    #: default, which is one of the "ideas for generalizing even more
    #: classes" in GHC ticket #12708.
    has_default: bool = False


@dataclass(frozen=True)
class ClassEntry:
    """One class of the base/ghc-prim corpus."""

    name: str
    package: str                       # "base" or "ghc-prim"
    class_var_kind: str                # "Type", "Type -> Type", ...
    methods: Tuple[MethodEntry, ...]
    superclasses: Tuple[str, ...] = ()


def _m(name: str, direct: bool = True, default: bool = False) -> MethodEntry:
    return MethodEntry(name, direct, default)


#: The corpus.  Order follows the rough layout of base's haddocks.
CLASSES: Tuple[ClassEntry, ...] = (
    # -- Prelude / numeric hierarchy (Type-kinded) ---------------------------
    ClassEntry("Eq", "ghc-prim", "Type", (_m("=="), _m("/="))),
    ClassEntry("Ord", "ghc-prim", "Type",
               (_m("compare"), _m("<"), _m("<="), _m(">"), _m(">="),
                _m("max"), _m("min")), ("Eq",)),
    ClassEntry("Num", "base", "Type",
               (_m("+"), _m("-"), _m("*"), _m("negate"), _m("abs"),
                _m("signum"), _m("fromInteger"))),
    ClassEntry("Real", "base", "Type", (_m("toRational"),), ("Num", "Ord")),
    ClassEntry("Integral", "base", "Type",
               (_m("quot"), _m("rem"), _m("div"), _m("mod"),
                _m("quotRem", False),   # quotRem :: a -> a -> (a, a)
                _m("divMod", False, True),
                _m("toInteger")), ("Real", "Enum")),
    ClassEntry("Fractional", "base", "Type",
               (_m("/"), _m("recip"), _m("fromRational")), ("Num",)),
    ClassEntry("Floating", "base", "Type",
               (_m("pi"), _m("exp"), _m("log"), _m("sqrt"), _m("**"),
                _m("logBase"), _m("sin"), _m("cos"), _m("tan"),
                _m("asin"), _m("acos"), _m("atan"), _m("sinh"), _m("cosh"),
                _m("tanh"), _m("asinh"), _m("acosh"), _m("atanh")),
               ("Fractional",)),
    ClassEntry("RealFrac", "base", "Type",
               (_m("properFraction", False),  # returns (b, a)
                _m("truncate"), _m("round"), _m("ceiling"), _m("floor")),
               ("Real", "Fractional")),
    ClassEntry("RealFloat", "base", "Type",
               (_m("floatRadix"), _m("floatDigits"),
                _m("floatRange"),              # a -> (Int, Int): tuple of Ints, not of a
                _m("decodeFloat"),             # a -> (Integer, Int): likewise direct
                _m("encodeFloat"), _m("exponent"), _m("significand"),
                _m("scaleFloat"), _m("isNaN"), _m("isInfinite"),
                _m("isDenormalized"), _m("isNegativeZero"), _m("isIEEE"),
                _m("atan2")), ("RealFrac", "Floating")),
    ClassEntry("Enum", "base", "Type",
               (_m("succ"), _m("pred"), _m("toEnum"), _m("fromEnum"),
                _m("enumFrom", False, True),          # a -> [a]
                _m("enumFromThen", False, True),
                _m("enumFromTo", False, True),
                _m("enumFromThenTo", False, True))),
    ClassEntry("Bounded", "base", "Type", (_m("minBound"), _m("maxBound"))),

    # -- Show / Read ----------------------------------------------------------
    ClassEntry("Show", "base", "Type",
               (_m("showsPrec"), _m("show"),
                _m("showList", False, True))),        # [a] -> ShowS
    ClassEntry("Read", "base", "Type",
               (_m("readsPrec", False),         # Int -> ReadS a = String -> [(a, String)]
                _m("readList", False),
                _m("readPrec", False),
                _m("readListPrec", False))),

    # -- Semigroup / Monoid ----------------------------------------------------
    ClassEntry("Semigroup", "base", "Type",
               (_m("<>"),
                _m("sconcat", False, True),           # NonEmpty a -> a
                _m("stimes", True, True))),
    ClassEntry("Monoid", "base", "Type",
               (_m("mempty"), _m("mappend"),
                _m("mconcat", False, True)),          # [a] -> a
               ("Semigroup",)),

    # -- Functor hierarchy (higher-kinded: not Type) ---------------------------
    ClassEntry("Functor", "base", "Type -> Type",
               (_m("fmap"), _m("<$"))),
    ClassEntry("Applicative", "base", "Type -> Type",
               (_m("pure"), _m("<*>"), _m("*>"), _m("<*"), _m("liftA2")),
               ("Functor",)),
    ClassEntry("Monad", "base", "Type -> Type",
               (_m(">>="), _m(">>"), _m("return"), _m("fail")),
               ("Applicative",)),
    ClassEntry("MonadFail", "base", "Type -> Type", (_m("fail"),), ("Monad",)),
    ClassEntry("MonadFix", "base", "Type -> Type", (_m("mfix"),), ("Monad",)),
    ClassEntry("MonadIO", "base", "Type -> Type", (_m("liftIO"),), ("Monad",)),
    ClassEntry("MonadPlus", "base", "Type -> Type",
               (_m("mzero"), _m("mplus")), ("Alternative", "Monad")),
    ClassEntry("MonadZip", "base", "Type -> Type",
               (_m("mzip"), _m("mzipWith"), _m("munzip")), ("Monad",)),
    ClassEntry("Alternative", "base", "Type -> Type",
               (_m("empty"), _m("<|>"), _m("some"), _m("many")),
               ("Applicative",)),
    ClassEntry("Foldable", "base", "Type -> Type",
               (_m("foldMap"), _m("foldr"), _m("foldl"), _m("toList"),
                _m("null"), _m("length"), _m("elem"), _m("maximum"),
                _m("minimum"), _m("sum"), _m("product"))),
    ClassEntry("Traversable", "base", "Type -> Type",
               (_m("traverse"), _m("sequenceA"), _m("mapM"), _m("sequence")),
               ("Functor", "Foldable")),
    ClassEntry("Bifunctor", "base", "Type -> Type -> Type",
               (_m("bimap"), _m("first"), _m("second"))),
    ClassEntry("Arrow", "base", "Type -> Type -> Type",
               (_m("arr"), _m("first"), _m("second"), _m("***"), _m("&&&")),
               ("Category",)),
    ClassEntry("ArrowChoice", "base", "Type -> Type -> Type",
               (_m("left"), _m("right"), _m("+++"), _m("|||")), ("Arrow",)),
    ClassEntry("ArrowApply", "base", "Type -> Type -> Type",
               (_m("app"),), ("Arrow",)),
    ClassEntry("ArrowZero", "base", "Type -> Type -> Type",
               (_m("zeroArrow"),), ("Arrow",)),
    ClassEntry("ArrowPlus", "base", "Type -> Type -> Type",
               (_m("<+>"),), ("ArrowZero",)),
    ClassEntry("ArrowLoop", "base", "Type -> Type -> Type",
               (_m("loop"),), ("Arrow",)),
    ClassEntry("Category", "base", "k -> k -> Type",
               (_m("id"), _m("."))),

    # -- Data.Functor.Classes (lifted equality/ordering/printing) --------------
    ClassEntry("Eq1", "base", "Type -> Type", (_m("liftEq"),)),
    ClassEntry("Ord1", "base", "Type -> Type", (_m("liftCompare"),), ("Eq1",)),
    ClassEntry("Show1", "base", "Type -> Type",
               (_m("liftShowsPrec"), _m("liftShowList"))),
    ClassEntry("Read1", "base", "Type -> Type",
               (_m("liftReadsPrec"), _m("liftReadList"))),
    ClassEntry("Eq2", "base", "Type -> Type -> Type", (_m("liftEq2"),)),
    ClassEntry("Ord2", "base", "Type -> Type -> Type",
               (_m("liftCompare2"),), ("Eq2",)),
    ClassEntry("Show2", "base", "Type -> Type -> Type",
               (_m("liftShowsPrec2"), _m("liftShowList2"))),
    ClassEntry("Read2", "base", "Type -> Type -> Type",
               (_m("liftReadsPrec2"), _m("liftReadList2"))),

    # -- Bits / FFI / storage ----------------------------------------------------
    ClassEntry("Bits", "base", "Type",
               (_m(".&."), _m(".|."), _m("xor"), _m("complement"),
                _m("shift"), _m("rotate"), _m("zeroBits"), _m("bit"),
                _m("setBit"), _m("clearBit"), _m("complementBit"),
                _m("testBit"), _m("bitSizeMaybe"), _m("bitSize"),
                _m("isSigned"), _m("shiftL"), _m("shiftR"), _m("rotateL"),
                _m("rotateR"), _m("popCount")), ("Eq",)),
    ClassEntry("FiniteBits", "base", "Type",
               (_m("finiteBitSize"), _m("countLeadingZeros"),
                _m("countTrailingZeros")), ("Bits",)),
    ClassEntry("Storable", "base", "Type",
               (_m("sizeOf"), _m("alignment"), _m("peekElemOff"),
                _m("pokeElemOff"), _m("peekByteOff"), _m("pokeByteOff"),
                _m("peek"), _m("poke"))),

    # -- Exceptions / strings / overloading --------------------------------------
    ClassEntry("Exception", "base", "Type",
               (_m("toException"), _m("fromException"),
                _m("displayException")), ("Show",)),
    ClassEntry("IsString", "base", "Type", (_m("fromString"),)),
    ClassEntry("IsList", "base", "Type",
               (_m("fromList", False),          # [Item l] -> l : Item under []
                _m("fromListN", False),
                _m("toList", False))),
    ClassEntry("Ix", "base", "Type",
               (_m("range", False),             # (a, a) -> [a]
                _m("index", False),
                _m("inRange", False),
                _m("rangeSize", False)), ("Ord",)),

    # -- Generics / reflection / data ----------------------------------------------
    ClassEntry("Data", "base", "Type",
               (_m("gfoldl", False), _m("gunfold", False), _m("toConstr"),
                _m("dataTypeOf"), _m("dataCast1", False),
                _m("dataCast2", False), _m("gmapT", False),
                _m("gmapQ", False), _m("gmapM", False)), ("Typeable",)),
    ClassEntry("Typeable", "base", "k", (_m("typeRep#"),)),
    ClassEntry("Generic", "base", "Type",
               (_m("from", False), _m("to", False))),   # Rep a x — under a constructor
    ClassEntry("Generic1", "base", "Type -> Type",
               (_m("from1"), _m("to1"))),
    ClassEntry("Datatype", "base", "k",
               (_m("datatypeName"), _m("moduleName"), _m("packageName"),
                _m("isNewtype"))),
    ClassEntry("Constructor", "base", "k",
               (_m("conName"), _m("conFixity"), _m("conIsRecord"))),
    ClassEntry("Selector", "base", "k", (_m("selName"),)),

    # -- GHC.TypeLits / type-level ---------------------------------------------------
    ClassEntry("KnownNat", "base", "Nat", (_m("natSing"),)),
    ClassEntry("KnownSymbol", "base", "Symbol", (_m("symbolSing"),)),
    ClassEntry("TestEquality", "base", "k -> Type", (_m("testEquality"),)),
    ClassEntry("TestCoercion", "base", "k -> Type", (_m("testCoercion"),)),

    # -- ghc-prim magic classes --------------------------------------------------------
    ClassEntry("Coercible", "ghc-prim", "k", (_m("coerce"),)),
    ClassEntry("IP", "ghc-prim", "Symbol", (_m("ip"),)),

    # -- printf / char -------------------------------------------------------------------
    ClassEntry("PrintfArg", "base", "Type",
               (_m("formatArg"), _m("parseFormat"))),
    ClassEntry("IsChar", "base", "Type", (_m("toChar"), _m("fromChar"))),
    ClassEntry("PrintfType", "base", "Type", (_m("spr", False),)),
    ClassEntry("HPrintfType", "base", "Type", (_m("hspr", False),)),

    # -- concurrency / IO ------------------------------------------------------------------
    ClassEntry("HasResolution", "base", "k", (_m("resolution"),)),
    ClassEntry("GHCiSandboxIO", "base", "Type -> Type",
               (_m("ghciStepIO"),), ("Monad",)),

    # -- numeric conversion helpers (Type-kinded, direct) -------------------------------------
    ClassEntry("BufferedIO", "base", "Type",
               (_m("newBuffer"), _m("fillReadBuffer"), _m("flushWriteBuffer"),
                _m("emptyWriteBuffer"), _m("flushWriteBuffer0"))),
    ClassEntry("RawIO", "base", "Type",
               (_m("read"), _m("readNonBlocking"), _m("write"),
                _m("writeNonBlocking"))),
    ClassEntry("IODevice", "base", "Type",
               (_m("ready"), _m("close"), _m("isTerminal"), _m("isSeekable"),
                _m("seek"), _m("tell"), _m("getSize"), _m("setSize"),
                _m("setEcho"), _m("getEcho"), _m("setRaw"), _m("devType"),
                _m("dup"), _m("dup2"))),
    ClassEntry("Bifoldable", "base", "Type -> Type -> Type",
               (_m("bifold"), _m("bifoldMap"), _m("bifoldr"), _m("bifoldl"))),
    ClassEntry("Bitraversable", "base", "Type -> Type -> Type",
               (_m("bitraverse"),), ("Bifunctor", "Bifoldable")),
    ClassEntry("Contravariant", "base", "Type -> Type",
               (_m("contramap"), _m(">$"))),
    ClassEntry("HasField", "base", "k", (_m("getField"),)),
    ClassEntry("IsLabel", "base", "k", (_m("fromLabel"),)),
)


def corpus_by_name() -> Dict[str, ClassEntry]:
    return {entry.name: entry for entry in CLASSES}
