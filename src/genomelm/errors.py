"""Exception types shared across the toolkit."""


class GenomeLmError(Exception):
    """Base class for all toolkit errors."""


# --- sequences ---------------------------------------------------------------

class InvalidSymbol(GenomeLmError):
    def __init__(self, position, symbol):
        self.position = position
        self.symbol = symbol
        super().__init__(f"invalid symbol {symbol!r} at position {position}")


class AmbiguousBase(GenomeLmError):
    def __init__(self, position):
        self.position = position
        super().__init__(f"ambiguous base 'N' at position {position}")


# --- tokenization ------------------------------------------------------------

class ContainsAmbiguousBase(GenomeLmError):
    pass


class SpecialTokenInStream(GenomeLmError):
    def __init__(self, token_id):
        self.token_id = token_id
        super().__init__(f"special token id {token_id} in nucleotide token stream")


class EmptyCorpus(GenomeLmError):
    pass


# --- ingestion ---------------------------------------------------------------

class MalformedLocation(GenomeLmError):
    def __init__(self, line, where):
        self.line = line  # where names the file and the line's number
        super().__init__(f"{where}: malformed feature location: {line!r}")


class MissingOrigin(GenomeLmError):
    pass


class BadRow(GenomeLmError):
    def __init__(self, line_no, reason, path=None):
        self.line_no = line_no
        self.reason = reason
        self.path = path
        where = f"{path}: " if path is not None else ""
        super().__init__(f"{where}bad row at line {line_no}: {reason}")


class BadFastaRecord(GenomeLmError):
    def __init__(self, path, line_no, record, reason):
        # record is None for a line outside any record
        self.path, self.line_no, self.record = path, line_no, record
        where = f"line {line_no}" if record is None else f"line {line_no} (record {record!r})"
        super().__init__(f"{path}: {where}: {reason}")


class UnknownSequenceId(GenomeLmError):
    pass


class InsufficientData(GenomeLmError):
    def __init__(self, group, needed, available):
        self.group = group
        self.needed = needed
        self.available = available
        super().__init__(
            f"insufficient data for {group}: need {needed}, have {available}"
        )


# --- language models ---------------------------------------------------------

class BadSmoothing(GenomeLmError):
    pass


class UnknownTokenId(GenomeLmError):
    pass


class PeerUnavailable(GenomeLmError):
    pass


class ProtocolViolation(GenomeLmError):
    def __init__(self, detail):
        self.detail = detail
        super().__init__(f"bridge protocol violation: {detail}")


class BridgeTimeout(GenomeLmError):
    pass


class BadModelFile(GenomeLmError, ValueError):
    pass  # a ValueError too, as the reading errors it replaces were


# --- sampling / recovery -----------------------------------------------------

class UnknownPrefixToken(GenomeLmError):
    pass


class ReferenceTooShort(GenomeLmError):
    pass


class VocabularyMismatch(GenomeLmError):
    pass


# --- variant scoring ---------------------------------------------------------

class RefMismatch(GenomeLmError):
    def __init__(self, variant, expected, found):
        self.variant = variant
        self.expected = expected
        self.found = found
        super().__init__(
            f"variant {variant}: reference mismatch: "
            f"variant says {expected!r}, genome has {found!r}"
        )


class PositionOutOfRange(GenomeLmError):
    pass


class AmbiguousContext(GenomeLmError):
    """A variant whose scored context holds an N, which no k-mer token encodes."""

    def __init__(self, variant, n_position):
        self.variant, self.n_position = variant, n_position
        super().__init__(f"variant {variant}: its scored context holds an N at {n_position}")


class DegenerateLabels(GenomeLmError):
    pass


# --- design ------------------------------------------------------------------

class TooFewSamples(GenomeLmError):
    pass


class SingularSystem(GenomeLmError):
    pass


class PoolTooSmall(GenomeLmError):
    pass


# --- analytics ---------------------------------------------------------------

class ConstantInput(GenomeLmError):
    pass


class SequenceTooShort(GenomeLmError):
    pass


class SingleCluster(GenomeLmError):
    pass
