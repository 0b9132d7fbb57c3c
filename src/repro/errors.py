"""Unified Status-style error contract for every store in the repo.

RocksDB answers "did this operation work?" with a ``Status`` object rather
than a zoo of exceptions; this module is the pythonic equivalent.  Two parts:

* ``KVError`` and friends — the *typed* operational failures a simulated
  store can hit: device IO errors (``IOFailure``, possibly torn), checksum
  mismatches (``Corruption``) and injected timeouts (``TimedOut``).
  Programmer errors (bad arguments, unknown verbs) remain ordinary
  ``ValueError``/``TypeError`` — the split mirrors RocksDB's
  Status-vs-assert line.

* ``KVStatus`` — the value-or-status result that request futures and the
  ``get_status``/``multiget_status`` APIs carry.  It removes the historical
  ``None``-vs-value ambiguity on point lookups: ``NOT_FOUND`` is an explicit
  state, not a magic return value, and errors travel as data instead of
  tearing through ``all_of`` gathers (the sim's ``AllOf`` fails fast, so a
  failed future would abort a whole batch gather mid-flight).

The module is dependency-free by design: ``repro.sim``, ``repro.storage``
and everything above them import it without cycles.
"""

from __future__ import annotations

__all__ = [
    "KVError",
    "IOFailure",
    "Corruption",
    "TimedOut",
    "KVStatus",
    "NOT_FOUND",
]


class KVError(Exception):
    """Base class of every operational failure a store can report.

    ``retryable`` says whether an identical retry has a chance of succeeding
    (transient device errors: yes; corruption: no).  ``site`` names where the
    failure was observed (an IO category, an engine name, a crash site) and
    ``details`` carries free-form context for reports and tests.
    """

    code = "error"
    #: Class-level default; constructors may override per instance.
    retryable = False

    def __init__(self, message="", site=None, retryable=None, **details):
        super().__init__(message)
        self.message = message
        self.site = site
        if retryable is not None:
            self.retryable = retryable
        self.details = details

    def describe(self):
        parts = [self.code]
        if self.site:
            parts.append("site=%s" % (self.site,))
        if self.message:
            parts.append(self.message)
        return ": ".join(parts)

    def __repr__(self):  # pragma: no cover - debugging aid
        return "%s(%r, site=%r)" % (type(self).__name__, self.message, self.site)


class IOFailure(KVError):
    """A device or file IO failed.

    Torn writes — the device losing power mid-transfer — are ``IOFailure``s
    with ``torn=True`` and ``completed_bytes`` set to the prefix that did
    reach the platter; ``storage/vfs.py`` uses it to advance the durable
    length past a partially-flushed (possibly mid-record) tail.
    """

    code = "io_error"
    retryable = True

    def __init__(self, message="", site=None, retryable=None, torn=False,
                 completed_bytes=0, **details):
        super().__init__(message, site=site, retryable=retryable, **details)
        self.torn = torn
        self.completed_bytes = completed_bytes


class Corruption(KVError):
    """Data failed a checksum or structural check.  Never retryable: the
    bytes on the (simulated) platter are wrong and will stay wrong."""

    code = "corruption"
    retryable = False


class TimedOut(KVError):
    """An operation exceeded its deadline (e.g. an injected device hang)."""

    code = "timed_out"
    retryable = True


class KVStatus:
    """The result of a KV operation: ``ok(value)``, ``not_found`` or an error.

    Request futures always *succeed* with a ``KVStatus`` — never ``fail`` —
    so batch gathers (``all_of``) collect per-request outcomes instead of
    aborting on the first failure.  Public sugar APIs unwrap it at the edge.
    """

    __slots__ = ("code", "value", "error")

    OK = "ok"
    NOTFOUND = "not_found"
    ERROR = "error"

    def __init__(self, code, value=None, error=None):
        self.code = code
        self.value = value
        self.error = error

    @classmethod
    def ok(cls, value=None):
        return cls(cls.OK, value=value)

    @classmethod
    def not_found(cls):
        return NOT_FOUND

    @classmethod
    def from_error(cls, error):
        return cls(cls.ERROR, error=error)

    @property
    def is_ok(self):
        return self.code == self.OK

    @property
    def is_not_found(self):
        return self.code == self.NOTFOUND

    @property
    def is_error(self):
        return self.code == self.ERROR

    def raise_for_error(self):
        """Raise the wrapped ``KVError`` if this is an error status."""
        if self.code == self.ERROR:
            raise self.error
        return self

    def value_or(self, default=None):
        """The value if OK, ``default`` if not found; raises on error."""
        if self.code == self.ERROR:
            raise self.error
        return self.value if self.code == self.OK else default

    def __repr__(self):
        if self.code == self.OK:
            return "KVStatus.ok(%r)" % (self.value,)
        if self.code == self.NOTFOUND:
            return "KVStatus.not_found()"
        return "KVStatus.from_error(%r)" % (self.error,)


#: Singleton "key does not exist" status — an explicit sentinel, not ``None``.
NOT_FOUND = KVStatus(KVStatus.NOTFOUND)
