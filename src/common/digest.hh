/**
 * @file
 * Small deterministic state digests (FNV-1a, 64 bit).
 *
 * Used wherever two runs must be proven byte-for-byte identical
 * without storing both images: the fuzzer digests generated program
 * listings so a corpus entry can assert that reproducing a case from
 * its seed yields exactly the program that originally failed, and
 * machine snapshots digest bulk memory images for quick mismatch
 * triage before a word-by-word diff.
 */

#ifndef APRIL_COMMON_DIGEST_HH
#define APRIL_COMMON_DIGEST_HH

#include <cstdint>
#include <string>

namespace april
{

/** Incremental FNV-1a 64-bit digest. */
class Digest
{
  public:
    /** Feed one byte. */
    void
    addByte(uint8_t b)
    {
        state ^= b;
        state *= 0x100000001B3ULL;
    }

    /** Feed a 32-bit value (little-endian byte order). */
    void
    addWord(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            addByte(uint8_t(v >> (8 * i)));
    }

    /** Feed a string verbatim. */
    void
    addString(const std::string &s)
    {
        for (char c : s)
            addByte(uint8_t(c));
    }

    uint64_t value() const { return state; }

  private:
    uint64_t state = 0xCBF29CE484222325ULL;     ///< FNV offset basis
};

/** One-shot digest of a string. */
inline uint64_t
digestString(const std::string &s)
{
    Digest d;
    d.addString(s);
    return d.value();
}

} // namespace april

#endif // APRIL_COMMON_DIGEST_HH
